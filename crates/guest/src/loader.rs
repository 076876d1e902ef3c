//! The guest kernel module loader.
//!
//! Maps a PE file image into the guest's kernel address space in *memory
//! layout* and applies base relocations. This performs the forward
//! transformation the paper describes:
//!
//! > "The module file contains relative virtual addresses that the module
//! > loader replaces with corresponding absolute addresses when it is loaded
//! > into memory. The absolute address is computed by adding the relative
//! > virtual address to module's base address."
//!
//! ModChecker's Algorithm 2 is the inverse of what happens here.

use std::fmt;

use mc_hypervisor::{AddressWidth, HvError, Vm};
use mc_pe::parser::ParsedModule;
use mc_pe::{PeError, PeFile};

/// Why a module could not be loaded into a guest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoadError {
    /// Mapping or writing guest memory failed.
    Hv(HvError),
    /// The module file is not a well-formed PE image (or its blueprint
    /// did not build).
    Pe(PeError),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Hv(e) => write!(f, "guest memory: {e}"),
            LoadError::Pe(e) => write!(f, "module file: {e}"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Hv(e) => Some(e),
            LoadError::Pe(e) => Some(e),
        }
    }
}

impl From<HvError> for LoadError {
    fn from(e: HvError) -> Self {
        LoadError::Hv(e)
    }
}

impl From<PeError> for LoadError {
    fn from(e: PeError) -> Self {
        LoadError::Pe(e)
    }
}

/// Ground truth about one loaded module.
#[derive(Clone, Debug)]
pub struct LoadedModule {
    /// Module name (`BaseDllName`).
    pub name: String,
    /// Load base address (`DllBase`).
    pub base: u64,
    /// `SizeOfImage` in bytes.
    pub size: u32,
    /// VA of this module's `LDR_DATA_TABLE_ENTRY` (filled by the caller
    /// after the entry is allocated).
    pub ldr_entry_va: u64,
    /// RVAs of the relocation slots the loader rewrote (ground truth for
    /// the reloc-table ablation; ModChecker must not use this).
    pub reloc_rvas: Vec<u32>,
}

/// Maps `pe` into `vm` at `base`, applies relocations, and returns ground
/// truth. Does not touch the module list (see [`crate::GuestOs::load`]).
/// A file that does not parse is a [`LoadError::Pe`], raised before any
/// guest memory is mapped.
pub fn load_module(
    vm: &mut Vm,
    pe: &PeFile,
    name: &str,
    base: u64,
) -> Result<LoadedModule, LoadError> {
    let file = pe.bytes();
    let parsed = ParsedModule::parse_file(file)?;
    let size = pe.size_of_image();

    // Reserve the whole image range (zero-filled pages).
    vm.map_range(base, size as u64)?;

    // Headers occupy the image start, byte-for-byte from the file.
    let headers_len = parsed
        .sections
        .iter()
        .map(|s| s.header_range.end)
        .max()
        .unwrap_or(parsed.nt_range.end);
    vm.write_virt(base, &file[..headers_len])?;

    // Map each section's raw data to its VirtualAddress. VirtualSize beyond
    // SizeOfRawData stays zero (the loader's zero-fill).
    // The parse checked every section's raw range against the file.
    for s in &parsed.sections {
        vm.write_virt(base + s.virtual_address as u64, &file[s.data_range.clone()])?;
    }

    // Base relocation: every slot holds a target RVA (ImageBase = 0 model);
    // the loader replaces it with the absolute address RVA + base.
    match vm.width() {
        AddressWidth::W32 => {
            for &rva in pe.reloc_rvas() {
                let at = base + rva as u64;
                let mut slot = [0u8; 4];
                vm.read_virt(at, &mut slot)?;
                let target_rva = u32::from_le_bytes(slot);
                let absolute = (target_rva as u64 + base) as u32;
                vm.write_virt(at, &absolute.to_le_bytes())?;
            }
        }
        AddressWidth::W64 => {
            for &rva in pe.reloc_rvas() {
                let at = base + rva as u64;
                let mut slot = [0u8; 8];
                vm.read_virt(at, &mut slot)?;
                let target_rva = u64::from_le_bytes(slot);
                let absolute = target_rva + base;
                vm.write_virt(at, &absolute.to_le_bytes())?;
            }
        }
    }

    Ok(LoadedModule {
        name: name.to_string(),
        base,
        size,
        ldr_entry_va: 0,
        reloc_rvas: pe.reloc_rvas().to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_hypervisor::VmId;
    use mc_pe::corpus::ModuleBlueprint;
    use mc_pe::parser::ParsedModule;

    fn load_one(width: AddressWidth, base: u64) -> (Vm, LoadedModule, PeFile) {
        let mut vm = Vm::new(VmId(0), "t", width);
        let pe = ModuleBlueprint::new("x.sys", width, 8 * 1024)
            .build()
            .unwrap();
        let m = load_module(&mut vm, &pe, "x.sys", base).unwrap();
        (vm, m, pe)
    }

    #[test]
    fn loaded_image_parses_in_memory_layout() {
        let (vm, m, _) = load_one(AddressWidth::W32, 0xF700_0000);
        let mut img = vec![0u8; m.size as usize];
        vm.read_virt(m.base, &mut img).unwrap();
        let parsed = ParsedModule::parse_memory(&img).unwrap();
        assert_eq!(parsed.sections[0].name, ".text");
        // Section data sits at VirtualAddress in the captured image.
        let text = parsed.section_data(&img, 0).unwrap();
        assert!(!text.iter().all(|&b| b == 0));
    }

    #[test]
    fn relocation_rewrites_slots_to_absolute() {
        let base = 0xF712_0000u64;
        let (vm, m, pe) = load_one(AddressWidth::W32, base);
        let file = pe.bytes();
        let parsed = ParsedModule::parse_file(file).unwrap();
        for &rva in pe.reloc_rvas().iter().take(8) {
            // File slot holds the target RVA.
            let text = &parsed.sections[0];
            let file_off = (rva - text.virtual_address) as usize + text.data_range.start;
            let file_val = u32::from_le_bytes(file[file_off..file_off + 4].try_into().unwrap());
            // Memory slot holds target RVA + base.
            let mut mem_slot = [0u8; 4];
            vm.read_virt(m.base + rva as u64, &mut mem_slot).unwrap();
            let mem_val = u32::from_le_bytes(mem_slot);
            assert_eq!(
                mem_val as u64,
                file_val as u64 + base,
                "slot at rva {rva:#x}"
            );
        }
    }

    #[test]
    fn non_reloc_bytes_match_file() {
        let (vm, m, pe) = load_one(AddressWidth::W32, 0xF734_0000);
        let file = pe.bytes();
        let parsed = ParsedModule::parse_file(file).unwrap();
        let text = &parsed.sections[0];
        let file_text = parsed.section_data(file, 0).unwrap();
        let mut mem_text = vec![0u8; file_text.len()];
        vm.read_virt(m.base + text.virtual_address as u64, &mut mem_text)
            .unwrap();
        // Blank out relocation slots on both sides; the rest must be equal.
        let mut file_text = file_text.to_vec();
        for &rva in pe.reloc_rvas() {
            let off = (rva - text.virtual_address) as usize;
            if off + 4 <= file_text.len() {
                file_text[off..off + 4].fill(0);
                mem_text[off..off + 4].fill(0);
            }
        }
        assert_eq!(file_text, mem_text);
    }

    #[test]
    fn w64_relocation_uses_eight_byte_slots() {
        let base = 0xFFFF_F880_0010_0000u64;
        let (vm, _m, pe) = load_one(AddressWidth::W64, base);
        let rva = pe.reloc_rvas()[0];
        let mut slot = [0u8; 8];
        vm.read_virt(base + rva as u64, &mut slot).unwrap();
        let abs = u64::from_le_bytes(slot);
        assert!(
            abs >= base,
            "absolute address {abs:#x} below base {base:#x}"
        );
    }
}
