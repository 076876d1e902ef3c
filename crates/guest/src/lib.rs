//! Simulated Windows-XP-like guest kernel.
//!
//! ModChecker never runs code *inside* a guest — it only reads guest memory.
//! What it reads, though, is highly structured: the kernel's loaded-module
//! list (`PsLoadedModuleList`, a circular doubly linked list of
//! `LDR_DATA_TABLE_ENTRY` nodes, the paper's Figure 2) and the loaded PE
//! images those entries point at. This crate builds exactly those bytes
//! inside a [`mc_hypervisor::Vm`]:
//!
//! * [`ldr`] — byte-accurate `LDR_DATA_TABLE_ENTRY` and `UNICODE_STRING`
//!   encodings at the real Windows field offsets (32- and 64-bit variants).
//! * [`loader`] — the kernel module loader: maps a PE file image into the
//!   guest's kernel address space in memory layout and applies base
//!   relocations, replacing each stored RVA with `RVA + base` — the exact
//!   transformation the paper's Algorithm 2 later reverses.
//! * [`GuestOs`] — assembles a whole guest: kernel globals page, module
//!   list, and the standard module corpus loaded at per-VM randomized bases.
//!   The paper's cloned VMs share identical module *files* but load them at
//!   different addresses; we reproduce that by regenerating each guest from
//!   the same deterministic corpus with a per-VM base-allocation seed.
//!
//! The struct also keeps *ground truth* (module bases and LDR entry
//! addresses) for use by the attack layer and by tests. ModChecker itself
//! must never touch ground truth: it discovers everything through VMI.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ldr;
pub mod loader;

mod alloc;

pub use alloc::BaseAllocator;
pub use ldr::LdrOffsets;
pub use loader::{load_module, LoadError, LoadedModule};

use mc_hypervisor::{AddressWidth, HvError, Hypervisor, VmId, PAGE_SIZE};
use mc_pe::corpus::ModuleBlueprint;
use mc_pe::PeFile;

/// The symbol name introspectors resolve to find the module list.
pub const PS_LOADED_MODULE_LIST: &str = "PsLoadedModuleList";

/// Guest virtual-address layout constants.
pub mod layout {
    /// 32-bit: VA of the kernel-globals page (holds `PsLoadedModuleList`).
    pub const GLOBALS_VA_32: u64 = 0x8055_0000;
    /// 32-bit: driver image region base (XP loads drivers around here).
    pub const MODULE_REGION_32: u64 = 0xF700_0000;
    /// 32-bit: nonpaged-pool-like region for loader metadata (LDR entries).
    pub const POOL_REGION_32: u64 = 0x8120_0000;
    /// 64-bit: VA of the kernel-globals page.
    pub const GLOBALS_VA_64: u64 = 0xFFFF_F800_0100_0000;
    /// 64-bit: driver image region base.
    pub const MODULE_REGION_64: u64 = 0xFFFF_F880_0000_0000;
    /// 64-bit: pool region for loader metadata.
    pub const POOL_REGION_64: u64 = 0xFFFF_F800_0200_0000;
}

/// A fully assembled guest OS inside one VM, plus ground truth about it.
#[derive(Clone, Debug)]
pub struct GuestOs {
    /// The VM this guest lives in.
    pub vm: VmId,
    /// Guest pointer width.
    pub width: AddressWidth,
    /// VA of the `PsLoadedModuleList` list head.
    pub list_head_va: u64,
    /// Ground truth: loaded modules in load order.
    pub modules: Vec<LoadedModule>,
    /// Pool allocator for loader metadata.
    pool: BaseAllocator,
}

impl GuestOs {
    /// Installs a bare kernel into `vm_id`: globals page with an empty
    /// circular module list, and the `PsLoadedModuleList` symbol exported to
    /// the VM's introspection profile.
    pub fn install(hv: &mut Hypervisor, vm_id: VmId, seed: u64) -> Result<Self, HvError> {
        let vm = hv.vm_mut(vm_id)?;
        let width = vm.width();
        let (globals_va, pool_base) = match width {
            AddressWidth::W32 => (layout::GLOBALS_VA_32, layout::POOL_REGION_32),
            AddressWidth::W64 => (layout::GLOBALS_VA_64, layout::POOL_REGION_64),
        };
        vm.map_range(globals_va, PAGE_SIZE as u64)?;
        // Empty circular list: head.flink = head.blink = head.
        let head = globals_va;
        vm.write_ptr(head, head)?;
        vm.write_ptr(head + width.bytes() as u64, head)?;
        vm.symbols.insert(PS_LOADED_MODULE_LIST.to_string(), head);

        Ok(GuestOs {
            vm: vm_id,
            width,
            list_head_va: head,
            modules: Vec::new(),
            pool: BaseAllocator::new(pool_base, seed ^ 0x9E37_79B9_7F4A_7C15),
        })
    }

    /// Installs a kernel and loads the given `(name, file)` pairs.
    pub fn install_with_modules(
        hv: &mut Hypervisor,
        vm_id: VmId,
        modules: &[(String, PeFile)],
        seed: u64,
    ) -> Result<Self, LoadError> {
        let mut os = Self::install(hv, vm_id, seed)?;
        let width = os.width;
        let region = match width {
            AddressWidth::W32 => layout::MODULE_REGION_32,
            AddressWidth::W64 => layout::MODULE_REGION_64,
        };
        let mut bases = BaseAllocator::new(region, seed);
        for (name, pe) in modules {
            let base = bases.alloc(pe.size_of_image() as u64);
            os.load(hv, name, pe, base)?;
        }
        Ok(os)
    }

    /// Loads one module at an explicit base and links it at the tail of the
    /// module list (load order).
    pub fn load(
        &mut self,
        hv: &mut Hypervisor,
        name: &str,
        pe: &PeFile,
        base: u64,
    ) -> Result<&LoadedModule, LoadError> {
        let vm = hv.vm_mut(self.vm)?;
        let mut module = load_module(vm, pe, name, base)?;

        // Allocate and encode the LDR_DATA_TABLE_ENTRY plus its name buffer.
        let offs = LdrOffsets::for_width(self.width);
        let name_utf16 = ldr::encode_utf16(name);
        let entry_va = self.pool.alloc_mapped(vm, offs.entry_size)?;
        let name_va = self.pool.alloc_mapped(vm, name_utf16.len() as u64 + 2)?;
        vm.write_virt(name_va, &name_utf16)?;

        ldr::write_entry(
            vm,
            &offs,
            entry_va,
            base,
            pe.size_of_image(),
            name_va,
            name_utf16.len() as u16,
        )?;
        ldr::link_tail(vm, &offs, self.list_head_va, entry_va)?;

        module.ldr_entry_va = entry_va;
        let idx = self.modules.len();
        self.modules.push(module);
        Ok(&self.modules[idx])
    }

    /// Ground-truth lookup by module name (case-insensitive, as Windows
    /// compares `BaseDllName`).
    pub fn find_module(&self, name: &str) -> Option<&LoadedModule> {
        self.modules
            .iter()
            .find(|m| m.name.eq_ignore_ascii_case(name))
    }

    /// Properly unloads a module: unlinks its LDR entry *and* unmaps its
    /// image pages (what the real loader does on driver unload), removing
    /// it from ground truth. Contrast with [`Self::dkom_hide`], which only
    /// unlinks.
    pub fn unload(&mut self, hv: &mut Hypervisor, name: &str) -> Result<(), HvError> {
        let idx = self
            .modules
            .iter()
            .position(|m| m.name.eq_ignore_ascii_case(name))
            .unwrap_or_else(|| panic!("unload: unknown module {name}"));
        let module = self.modules.remove(idx);
        let vm = hv.vm_mut(self.vm)?;
        ldr::unlink(vm, &LdrOffsets::for_width(self.width), module.ldr_entry_va)?;
        let pages = (module.size as u64).div_ceil(PAGE_SIZE as u64);
        for p in 0..pages {
            let va = module.base + p * PAGE_SIZE as u64;
            let aspace = vm.aspace;
            aspace.unmap(&mut vm.mem, va)?;
        }
        Ok(())
    }

    /// Unlinks a module's LDR entry from the list without unmapping the
    /// image — the classic DKOM (direct kernel object manipulation) hiding
    /// technique.
    ///
    /// # Panics
    /// Panics if the module is unknown — callers with untrusted input
    /// should check [`GuestOs::find_module`] first.
    pub fn dkom_hide(&self, hv: &mut Hypervisor, name: &str) -> Result<(), HvError> {
        let module = self
            .find_module(name)
            .unwrap_or_else(|| panic!("dkom_hide: unknown module {name}"));
        let vm = hv.vm_mut(self.vm)?;
        ldr::unlink(vm, &LdrOffsets::for_width(self.width), module.ldr_entry_va)
    }

    /// Overwrites bytes inside a loaded module's in-memory image (in-memory
    /// infection vector used by the attack layer).
    pub fn patch_module(
        &self,
        hv: &mut Hypervisor,
        name: &str,
        offset: u64,
        bytes: &[u8],
    ) -> Result<(), HvError> {
        let module = self
            .find_module(name)
            .unwrap_or_else(|| panic!("patch_module: unknown module {name}"));
        assert!(
            offset + bytes.len() as u64 <= module.size as u64,
            "patch outside module image"
        );
        hv.vm_mut(self.vm)?.write_virt(module.base + offset, bytes)
    }
}

/// Convenience: builds a cloud with a custom module list (used by tests that
/// need small, fast guests).
pub fn build_cloud_with_modules(
    hv: &mut Hypervisor,
    count: usize,
    width: AddressWidth,
    blueprints: &[ModuleBlueprint],
) -> Result<Vec<GuestOs>, LoadError> {
    let corpus = blueprints
        .iter()
        .map(|bp| Ok((bp.name.clone(), bp.build()?)))
        .collect::<Result<Vec<(String, PeFile)>, LoadError>>()?;
    let mut guests = Vec::with_capacity(count);
    for i in 0..count {
        let vm = hv.create_vm(&format!("dom{}", i + 1), width)?;
        guests.push(GuestOs::install_with_modules(
            hv,
            vm,
            &corpus,
            i as u64 + 1,
        )?);
    }
    Ok(guests)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_blueprints(width: AddressWidth) -> Vec<ModuleBlueprint> {
        vec![
            ModuleBlueprint::new("alpha.sys", width, 8 * 1024),
            ModuleBlueprint::new("beta.sys", width, 16 * 1024),
            ModuleBlueprint::new("hal.dll", width, 12 * 1024),
        ]
    }

    #[test]
    fn cloud_has_distinct_bases_per_vm() {
        let mut hv = Hypervisor::new();
        let guests = build_cloud_with_modules(
            &mut hv,
            3,
            AddressWidth::W32,
            &small_blueprints(AddressWidth::W32),
        )
        .unwrap();
        let bases: Vec<u64> = guests
            .iter()
            .map(|g| g.find_module("hal.dll").unwrap().base)
            .collect();
        assert_ne!(bases[0], bases[1]);
        assert_ne!(bases[1], bases[2]);
    }

    #[test]
    fn module_images_identical_after_unrelocation() {
        // Two VMs load the same file at different bases; their in-memory
        // images differ only at relocation slots.
        let mut hv = Hypervisor::new();
        let width = AddressWidth::W32;
        let guests = build_cloud_with_modules(&mut hv, 2, width, &small_blueprints(width)).unwrap();
        let m0 = guests[0].find_module("beta.sys").unwrap();
        let m1 = guests[1].find_module("beta.sys").unwrap();
        assert_ne!(m0.base, m1.base);

        let mut img0 = vec![0u8; m0.size as usize];
        let mut img1 = vec![0u8; m1.size as usize];
        hv.vm(guests[0].vm)
            .unwrap()
            .read_virt(m0.base, &mut img0)
            .unwrap();
        hv.vm(guests[1].vm)
            .unwrap()
            .read_virt(m1.base, &mut img1)
            .unwrap();
        assert_ne!(img0, img1, "relocation must differentiate the images");

        // Undo relocation using ground truth (the reloc site list): the
        // file-identical property must hold.
        let pe = small_blueprints(width)
            .iter()
            .find(|b| b.name == "beta.sys")
            .unwrap()
            .build()
            .unwrap();
        for rva in pe.reloc_rvas() {
            for (img, base) in [(&mut img0, m0.base), (&mut img1, m1.base)] {
                let at = *rva as usize;
                let mut slot = [0u8; 4];
                slot.copy_from_slice(&img[at..at + 4]);
                let abs = u32::from_le_bytes(slot) as u64;
                let rva_back = (abs - base) as u32;
                img[at..at + 4].copy_from_slice(&rva_back.to_le_bytes());
            }
        }
        assert_eq!(img0, img1, "images identical after un-relocation");
    }

    #[test]
    fn patch_module_mutates_guest_memory() {
        let mut hv = Hypervisor::new();
        let width = AddressWidth::W32;
        let guests = build_cloud_with_modules(&mut hv, 1, width, &small_blueprints(width)).unwrap();
        let base = guests[0].find_module("alpha.sys").unwrap().base;
        guests[0]
            .patch_module(&mut hv, "alpha.sys", 0x40, b"XYZ")
            .unwrap();
        let mut buf = [0u8; 3];
        hv.vm(guests[0].vm)
            .unwrap()
            .read_virt(base + 0x40, &mut buf)
            .unwrap();
        assert_eq!(&buf, b"XYZ");
    }

    #[test]
    fn symbols_are_exported_for_introspection() {
        let mut hv = Hypervisor::new();
        let width = AddressWidth::W32;
        let guests = build_cloud_with_modules(&mut hv, 1, width, &small_blueprints(width)).unwrap();
        let vm = hv.vm(guests[0].vm).unwrap();
        let head = vm.symbols[PS_LOADED_MODULE_LIST];
        assert_eq!(head, guests[0].list_head_va);
        // The head is a valid circular list: follow flinks module-count + 1
        // times and arrive back at the head.
        let mut at = vm.read_ptr(head).unwrap();
        let mut hops = 0;
        while at != head {
            at = vm.read_ptr(at).unwrap();
            hops += 1;
            assert!(hops < 100, "list does not cycle back");
        }
        assert_eq!(hops, guests[0].modules.len());
    }

    #[test]
    fn sixty_four_bit_cloud_builds() {
        let mut hv = Hypervisor::new();
        let width = AddressWidth::W64;
        let guests = build_cloud_with_modules(&mut hv, 2, width, &small_blueprints(width)).unwrap();
        let m0 = guests[0].find_module("hal.dll").unwrap();
        let m1 = guests[1].find_module("hal.dll").unwrap();
        assert_ne!(m0.base, m1.base);
        assert!(m0.base >= layout::MODULE_REGION_64);
    }

    #[test]
    fn unload_removes_entry_and_unmaps_image() {
        let mut hv = Hypervisor::new();
        let width = AddressWidth::W32;
        let mut guests =
            build_cloud_with_modules(&mut hv, 1, width, &small_blueprints(width)).unwrap();
        let base = guests[0].find_module("beta.sys").unwrap().base;
        guests[0].unload(&mut hv, "beta.sys").unwrap();
        assert!(guests[0].find_module("beta.sys").is_none());
        // Image pages are gone.
        let vm = hv.vm(guests[0].vm).unwrap();
        let mut buf = [0u8; 4];
        assert!(vm.read_virt(base, &mut buf).is_err());
        // List now has one fewer entry.
        let head = guests[0].list_head_va;
        let mut at = vm.read_ptr(head).unwrap();
        let mut count = 0;
        while at != head {
            at = vm.read_ptr(at).unwrap();
            count += 1;
        }
        assert_eq!(count, 2);
    }

    #[test]
    fn dkom_hide_removes_entry_from_list_walk() {
        let mut hv = Hypervisor::new();
        let width = AddressWidth::W32;
        let guests = build_cloud_with_modules(&mut hv, 1, width, &small_blueprints(width)).unwrap();
        guests[0].dkom_hide(&mut hv, "beta.sys").unwrap();
        let vm = hv.vm(guests[0].vm).unwrap();
        let head = guests[0].list_head_va;
        let mut at = vm.read_ptr(head).unwrap();
        let mut seen = 0;
        while at != head {
            at = vm.read_ptr(at).unwrap();
            seen += 1;
        }
        assert_eq!(seen, guests[0].modules.len() - 1);
    }
}
