//! Guest page tables, built in guest memory and walked per access.
//!
//! VMI tools translate guest virtual addresses by walking the guest's own
//! page tables (libVMI reads CR3 and performs the walk against mapped guest
//! frames). Reproducing that faithfully matters for performance: every
//! virtual read pays a translation, and a loaded module that is virtually
//! contiguous is physically scattered.
//!
//! Formats implemented:
//! * **32-bit non-PAE two-level** (Windows XP's default): page directory →
//!   page table, 1024 × 4-byte entries each, 4 KiB pages.
//! * **64-bit four-level** (PML4 → PDPT → PD → PT), 512 × 8-byte entries,
//!   48-bit canonical addresses.
//!
//! Only the present bit and the frame address are modeled; access-rights
//! bits are irrelevant to read-only introspection.

use crate::error::HvError;
use crate::mem::{GuestPhysMemory, PAGE_SHIFT, PAGE_SIZE};
use mc_pe::AddressWidth;

/// Present bit in both entry formats.
const ENTRY_PRESENT: u64 = 1;
/// Frame-address mask for 32-bit entries.
const ADDR_MASK_32: u64 = 0xFFFF_F000;
/// Frame-address mask for 64-bit entries.
const ADDR_MASK_64: u64 = 0x000F_FFFF_FFFF_F000;

/// A guest address space rooted at a page-table base (CR3).
#[derive(Clone, Copy, Debug)]
pub struct AddressSpace {
    width: AddressWidth,
    root: u64,
}

impl AddressSpace {
    /// Allocates a fresh, empty top-level table in `mem`.
    pub fn new(mem: &mut GuestPhysMemory, width: AddressWidth) -> Self {
        let root = mem.alloc_frame();
        AddressSpace { width, root }
    }

    /// Guest pointer width.
    pub fn width(&self) -> AddressWidth {
        self.width
    }

    /// Validates that `va` is representable/canonical for this width.
    fn check_va(&self, va: u64) -> Result<(), HvError> {
        match self.width {
            AddressWidth::W32 => {
                if va >> 32 != 0 {
                    return Err(HvError::BadVa(va));
                }
            }
            AddressWidth::W64 => {
                // 48-bit canonical: bits 63:47 all equal.
                let top = va >> 47;
                if top != 0 && top != 0x1FFFF {
                    return Err(HvError::BadVa(va));
                }
            }
        }
        Ok(())
    }

    /// Maps the page containing `va` to the frame at `pa` (both page-
    /// aligned). Allocates intermediate tables on demand. Fails with
    /// [`HvError::AlreadyMapped`] if a mapping exists — the guest loader
    /// never double-maps, so this catches bugs early.
    pub fn map(&self, mem: &mut GuestPhysMemory, va: u64, pa: u64) -> Result<(), HvError> {
        debug_assert_eq!(va & (PAGE_SIZE as u64 - 1), 0, "va must be page-aligned");
        debug_assert_eq!(pa & (PAGE_SIZE as u64 - 1), 0, "pa must be page-aligned");
        self.check_va(va)?;
        match self.width {
            AddressWidth::W32 => {
                let pde_at = self.root + 4 * ((va >> 22) & 0x3FF);
                let pde = mem.read_u32(pde_at)? as u64;
                let pt = if pde & ENTRY_PRESENT != 0 {
                    pde & ADDR_MASK_32
                } else {
                    let pt = mem.alloc_frame();
                    mem.write_u32(pde_at, (pt as u32) | ENTRY_PRESENT as u32)?;
                    pt
                };
                let pte_at = pt + 4 * ((va >> PAGE_SHIFT) & 0x3FF);
                if mem.read_u32(pte_at)? as u64 & ENTRY_PRESENT != 0 {
                    return Err(HvError::AlreadyMapped(va));
                }
                mem.write_u32(pte_at, (pa as u32) | ENTRY_PRESENT as u32)?;
            }
            AddressWidth::W64 => {
                let mut table = self.root;
                for level in (1..4).rev() {
                    let idx = (va >> (PAGE_SHIFT as u64 + 9 * level)) & 0x1FF;
                    let entry_at = table + 8 * idx;
                    let entry = mem.read_u64(entry_at)?;
                    table = if entry & ENTRY_PRESENT != 0 {
                        entry & ADDR_MASK_64
                    } else {
                        let next = mem.alloc_frame();
                        mem.write_u64(entry_at, next | ENTRY_PRESENT)?;
                        next
                    };
                }
                let pte_at = table + 8 * ((va >> PAGE_SHIFT) & 0x1FF);
                if mem.read_u64(pte_at)? & ENTRY_PRESENT != 0 {
                    return Err(HvError::AlreadyMapped(va));
                }
                mem.write_u64(pte_at, pa | ENTRY_PRESENT)?;
            }
        }
        Ok(())
    }

    /// Maps `len` bytes starting at page-aligned `va`, allocating a fresh
    /// frame per page.
    pub fn map_range_alloc(
        &self,
        mem: &mut GuestPhysMemory,
        va: u64,
        len: u64,
    ) -> Result<(), HvError> {
        let pages = len.div_ceil(PAGE_SIZE as u64);
        for p in 0..pages {
            let frame = mem.alloc_frame();
            self.map(mem, va + p * PAGE_SIZE as u64, frame)?;
        }
        Ok(())
    }

    /// Translates a guest virtual address to guest-physical by walking the
    /// tables, as libVMI does for every access.
    pub fn translate(&self, mem: &GuestPhysMemory, va: u64) -> Result<u64, HvError> {
        self.check_va(va)?;
        let page_off = va & (PAGE_SIZE as u64 - 1);
        match self.width {
            AddressWidth::W32 => {
                let pde = mem.read_u32(self.root + 4 * ((va >> 22) & 0x3FF))? as u64;
                if pde & ENTRY_PRESENT == 0 {
                    return Err(HvError::UnmappedVa(va));
                }
                let pte =
                    mem.read_u32((pde & ADDR_MASK_32) + 4 * ((va >> PAGE_SHIFT) & 0x3FF))? as u64;
                if pte & ENTRY_PRESENT == 0 {
                    return Err(HvError::UnmappedVa(va));
                }
                Ok((pte & ADDR_MASK_32) | page_off)
            }
            AddressWidth::W64 => {
                let mut table = self.root;
                for level in (1..4).rev() {
                    let idx = (va >> (PAGE_SHIFT as u64 + 9 * level)) & 0x1FF;
                    let entry = mem.read_u64(table + 8 * idx)?;
                    if entry & ENTRY_PRESENT == 0 {
                        return Err(HvError::UnmappedVa(va));
                    }
                    table = entry & ADDR_MASK_64;
                }
                let pte = mem.read_u64(table + 8 * ((va >> PAGE_SHIFT) & 0x1FF))?;
                if pte & ENTRY_PRESENT == 0 {
                    return Err(HvError::UnmappedVa(va));
                }
                Ok((pte & ADDR_MASK_64) | page_off)
            }
        }
    }

    /// Unmaps the page containing `va` (clears the PTE). Used by the DKOM-
    /// style attacks and failure-injection tests.
    pub fn unmap(&self, mem: &mut GuestPhysMemory, va: u64) -> Result<(), HvError> {
        self.check_va(va)?;
        match self.width {
            AddressWidth::W32 => {
                let pde = mem.read_u32(self.root + 4 * ((va >> 22) & 0x3FF))? as u64;
                if pde & ENTRY_PRESENT == 0 {
                    return Err(HvError::UnmappedVa(va));
                }
                let pte_at = (pde & ADDR_MASK_32) + 4 * ((va >> PAGE_SHIFT) & 0x3FF);
                if mem.read_u32(pte_at)? as u64 & ENTRY_PRESENT == 0 {
                    return Err(HvError::UnmappedVa(va));
                }
                mem.write_u32(pte_at, 0)?;
            }
            AddressWidth::W64 => {
                let mut table = self.root;
                for level in (1..4).rev() {
                    let idx = (va >> (PAGE_SHIFT as u64 + 9 * level)) & 0x1FF;
                    let entry = mem.read_u64(table + 8 * idx)?;
                    if entry & ENTRY_PRESENT == 0 {
                        return Err(HvError::UnmappedVa(va));
                    }
                    table = entry & ADDR_MASK_64;
                }
                let pte_at = table + 8 * ((va >> PAGE_SHIFT) & 0x1FF);
                if mem.read_u64(pte_at)? & ENTRY_PRESENT == 0 {
                    return Err(HvError::UnmappedVa(va));
                }
                mem.write_u64(pte_at, 0)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(width: AddressWidth) -> (GuestPhysMemory, AddressSpace) {
        let mut mem = GuestPhysMemory::new();
        let aspace = AddressSpace::new(&mut mem, width);
        (mem, aspace)
    }

    #[test]
    fn map_translate_round_trip_32() {
        let (mut mem, aspace) = setup(AddressWidth::W32);
        let va = 0x8010_0000u64;
        let frame = mem.alloc_frame();
        aspace.map(&mut mem, va, frame).unwrap();
        assert_eq!(aspace.translate(&mem, va).unwrap(), frame);
        assert_eq!(aspace.translate(&mem, va + 0x123).unwrap(), frame + 0x123);
        assert!(matches!(
            aspace.translate(&mem, va + PAGE_SIZE as u64),
            Err(HvError::UnmappedVa(_))
        ));
    }

    #[test]
    fn map_translate_round_trip_64() {
        let (mut mem, aspace) = setup(AddressWidth::W64);
        let va = 0xFFFF_F800_0010_0000u64;
        let frame = mem.alloc_frame();
        aspace.map(&mut mem, va, frame).unwrap();
        assert_eq!(aspace.translate(&mem, va).unwrap(), frame);
        assert_eq!(aspace.translate(&mem, va + 0xFFF).unwrap(), frame + 0xFFF);
    }

    #[test]
    fn noncanonical_va_rejected() {
        let (mem, aspace) = setup(AddressWidth::W64);
        assert!(matches!(
            aspace.translate(&mem, 0x0008_0000_0000_0000),
            Err(HvError::BadVa(_))
        ));
        let (mem32, aspace32) = {
            let (m, a) = setup(AddressWidth::W32);
            (m, a)
        };
        let _ = mem; // 64-bit mem no longer needed
        assert!(matches!(
            aspace32.translate(&mem32, 0x1_0000_0000),
            Err(HvError::BadVa(_))
        ));
        let mut mem32 = mem32;
        assert!(aspace32.map(&mut mem32, 0x1_0000_0000, 0).is_err());
    }

    #[test]
    fn double_map_rejected() {
        let (mut mem, aspace) = setup(AddressWidth::W32);
        let f = mem.alloc_frame();
        aspace.map(&mut mem, 0x40_0000, f).unwrap();
        assert!(matches!(
            aspace.map(&mut mem, 0x40_0000, f),
            Err(HvError::AlreadyMapped(_))
        ));
    }

    #[test]
    fn map_range_alloc_covers_len() {
        let (mut mem, aspace) = setup(AddressWidth::W32);
        let va = 0x8000_0000u64;
        aspace
            .map_range_alloc(&mut mem, va, 3 * PAGE_SIZE as u64 + 1)
            .unwrap();
        for p in 0..4 {
            aspace.translate(&mem, va + p * PAGE_SIZE as u64).unwrap();
        }
        assert!(aspace.translate(&mem, va + 4 * PAGE_SIZE as u64).is_err());
    }

    #[test]
    fn distinct_pages_get_distinct_frames() {
        let (mut mem, aspace) = setup(AddressWidth::W32);
        let va = 0x9000_0000u64;
        aspace
            .map_range_alloc(&mut mem, va, 2 * PAGE_SIZE as u64)
            .unwrap();
        let p0 = aspace.translate(&mem, va).unwrap();
        let p1 = aspace.translate(&mem, va + PAGE_SIZE as u64).unwrap();
        assert_ne!(p0 >> PAGE_SHIFT, p1 >> PAGE_SHIFT);
    }

    #[test]
    fn unmap_makes_va_unreachable() {
        let (mut mem, aspace) = setup(AddressWidth::W32);
        let va = 0x8000_0000u64;
        aspace
            .map_range_alloc(&mut mem, va, PAGE_SIZE as u64)
            .unwrap();
        aspace.translate(&mem, va).unwrap();
        aspace.unmap(&mut mem, va).unwrap();
        assert!(matches!(
            aspace.translate(&mem, va),
            Err(HvError::UnmappedVa(_))
        ));
        // Unmapping again is an error (nothing present).
        assert!(aspace.unmap(&mut mem, va).is_err());
    }

    #[test]
    fn kernel_half_and_user_half_coexist_32() {
        let (mut mem, aspace) = setup(AddressWidth::W32);
        let f1 = mem.alloc_frame();
        let f2 = mem.alloc_frame();
        aspace.map(&mut mem, 0x0040_0000, f1).unwrap();
        aspace.map(&mut mem, 0x8040_0000, f2).unwrap();
        mem.write_phys(f1, b"user").unwrap();
        mem.write_phys(f2, b"kern").unwrap();
        let mut buf = [0u8; 4];
        let pa = aspace.translate(&mem, 0x8040_0000).unwrap();
        mem.read_phys(pa, &mut buf).unwrap();
        assert_eq!(&buf, b"kern");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Any set of distinct page-aligned VAs maps and translates
            /// back to the frames it was mapped to, for both widths.
            #[test]
            fn translate_inverts_map(pages in proptest::collection::hash_set(0u64..0x8_0000, 1..32),
                                     wide in proptest::bool::ANY) {
                let width = if wide { AddressWidth::W64 } else { AddressWidth::W32 };
                let (mut mem, aspace) = setup(width);
                let mut expect = Vec::new();
                for p in &pages {
                    let va = p << PAGE_SHIFT;
                    let frame = mem.alloc_frame();
                    aspace.map(&mut mem, va, frame).unwrap();
                    expect.push((va, frame));
                }
                for (va, frame) in expect {
                    prop_assert_eq!(aspace.translate(&mem, va).unwrap(), frame);
                    prop_assert_eq!(aspace.translate(&mem, va | 0x7FF).unwrap(), frame | 0x7FF);
                }
            }
        }
    }
}
