//! `LDR_DATA_TABLE_ENTRY` / `UNICODE_STRING` byte encodings (Figure 2).
//!
//! The kernel tracks loaded modules in a circular doubly linked list headed
//! by `PsLoadedModuleList`. Each node is an `LDR_DATA_TABLE_ENTRY` whose
//! `InLoadOrderLinks` (`LIST_ENTRY { Flink, Blink }`) is the node's first
//! field, so a list pointer *is* an entry pointer. Field offsets below match
//! Windows XP SP2 (32-bit) and Server-2003-era 64-bit layouts — the offsets
//! an introspector must hard-code from OS profiles, exactly as libVMI does.

use mc_hypervisor::{AddressWidth, HvError, Vm};

/// Field offsets of `LDR_DATA_TABLE_ENTRY` for one pointer width.
#[derive(Clone, Copy, Debug)]
pub struct LdrOffsets {
    /// Pointer size in bytes.
    pub ptr: u64,
    /// `InLoadOrderLinks.Flink` (always 0 — first field).
    pub flink: u64,
    /// `InLoadOrderLinks.Blink`.
    pub blink: u64,
    /// `DllBase`: module load base address.
    pub dll_base: u64,
    /// `EntryPoint`.
    pub entry_point: u64,
    /// `SizeOfImage`.
    pub size_of_image: u64,
    /// `FullDllName` (`UNICODE_STRING`).
    pub full_dll_name: u64,
    /// `BaseDllName` (`UNICODE_STRING`).
    pub base_dll_name: u64,
    /// Total bytes to reserve for an entry.
    pub entry_size: u64,
    /// `UNICODE_STRING.Buffer` offset within the string struct.
    pub ustr_buffer: u64,
    /// `UNICODE_STRING` struct size.
    pub ustr_size: u64,
}

impl LdrOffsets {
    /// Offsets for the given guest width.
    pub fn for_width(width: AddressWidth) -> Self {
        match width {
            AddressWidth::W32 => LdrOffsets {
                ptr: 4,
                flink: 0x00,
                blink: 0x04,
                dll_base: 0x18,
                entry_point: 0x1C,
                size_of_image: 0x20,
                full_dll_name: 0x24,
                base_dll_name: 0x2C,
                entry_size: 0x50,
                ustr_buffer: 4,
                ustr_size: 8,
            },
            AddressWidth::W64 => LdrOffsets {
                ptr: 8,
                flink: 0x00,
                blink: 0x08,
                dll_base: 0x30,
                entry_point: 0x38,
                size_of_image: 0x40,
                full_dll_name: 0x48,
                base_dll_name: 0x58,
                entry_size: 0x98,
                ustr_buffer: 8,
                ustr_size: 16,
            },
        }
    }
}

/// Encodes a module name as UTF-16LE (no terminator), as `UNICODE_STRING`
/// buffers store it.
pub fn encode_utf16(name: &str) -> Vec<u8> {
    name.encode_utf16().flat_map(u16::to_le_bytes).collect()
}

/// Decodes a UTF-16LE buffer back to a `String` (lossy on bad surrogates,
/// exactly as [`String::from_utf16_lossy`]). Decodes straight from the
/// bytes: an ASCII name costs one allocation, the string itself.
pub fn decode_utf16(bytes: &[u8]) -> String {
    let units = bytes
        .chunks_exact(2)
        .map(|c| u16::from_le_bytes([c[0], c[1]]));
    let mut out = String::with_capacity(bytes.len() / 2);
    out.extend(char::decode_utf16(units).map(|c| c.unwrap_or(char::REPLACEMENT_CHARACTER)));
    out
}

/// Writes an `LDR_DATA_TABLE_ENTRY` at `entry_va` (links left NULL; see
/// [`link_tail`]).
#[allow(clippy::too_many_arguments)]
pub fn write_entry(
    vm: &mut Vm,
    offs: &LdrOffsets,
    entry_va: u64,
    dll_base: u64,
    size_of_image: u32,
    name_buffer_va: u64,
    name_len_bytes: u16,
) -> Result<(), HvError> {
    vm.write_ptr(entry_va + offs.dll_base, dll_base)?;
    vm.write_ptr(entry_va + offs.entry_point, dll_base)?;
    match offs.ptr {
        4 => vm.write_virt(entry_va + offs.size_of_image, &size_of_image.to_le_bytes())?,
        _ => vm.write_virt(
            entry_va + offs.size_of_image,
            &(size_of_image as u64).to_le_bytes(),
        )?,
    }
    // BaseDllName and FullDllName share the buffer (the reproduction's
    // guests don't model paths; the searcher compares BaseDllName only).
    for ustr_off in [offs.base_dll_name, offs.full_dll_name] {
        let at = entry_va + ustr_off;
        vm.write_virt(at, &name_len_bytes.to_le_bytes())?; // Length
        vm.write_virt(at + 2, &(name_len_bytes + 2).to_le_bytes())?; // MaximumLength
        vm.write_ptr(at + offs.ustr_buffer, name_buffer_va)?;
    }
    Ok(())
}

/// Links `entry_va` at the tail of the circular list headed at `head_va`
/// (load order: new modules append).
pub fn link_tail(
    vm: &mut Vm,
    offs: &LdrOffsets,
    head_va: u64,
    entry_va: u64,
) -> Result<(), HvError> {
    let old_tail = vm.read_ptr(head_va + offs.blink)?;
    // entry.flink = head; entry.blink = old_tail.
    vm.write_ptr(entry_va + offs.flink, head_va)?;
    vm.write_ptr(entry_va + offs.blink, old_tail)?;
    // old_tail.flink = entry; head.blink = entry.
    vm.write_ptr(old_tail + offs.flink, entry_va)?;
    vm.write_ptr(head_va + offs.blink, entry_va)?;
    Ok(())
}

/// Unlinks `entry_va` from its list (DKOM hiding): neighbors point past it;
/// the entry's own links are left dangling, as real rootkits leave them.
pub fn unlink(vm: &mut Vm, offs: &LdrOffsets, entry_va: u64) -> Result<(), HvError> {
    let flink = vm.read_ptr(entry_va + offs.flink)?;
    let blink = vm.read_ptr(entry_va + offs.blink)?;
    vm.write_ptr(blink + offs.flink, flink)?;
    vm.write_ptr(flink + offs.blink, blink)?;
    Ok(())
}

/// Reads the `BaseDllName` of the entry at `entry_va`.
pub fn read_base_dll_name(vm: &Vm, offs: &LdrOffsets, entry_va: u64) -> Result<String, HvError> {
    let at = entry_va + offs.base_dll_name;
    let mut len = [0u8; 2];
    vm.read_virt(at, &mut len)?;
    let len = u16::from_le_bytes(len) as usize;
    let buffer = vm.read_ptr(at + offs.ustr_buffer)?;
    let mut raw = vec![0u8; len];
    vm.read_virt(buffer, &mut raw)?;
    Ok(decode_utf16(&raw))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_hypervisor::{VmId, PAGE_SIZE};

    fn vm_with_pool(width: AddressWidth) -> (Vm, u64) {
        let mut vm = Vm::new(VmId(0), "t", width);
        let pool = match width {
            AddressWidth::W32 => 0x8120_0000u64,
            AddressWidth::W64 => 0xFFFF_F800_0200_0000u64,
        };
        vm.map_range(pool, 4 * PAGE_SIZE as u64).unwrap();
        (vm, pool)
    }

    #[test]
    fn utf16_round_trip() {
        let enc = encode_utf16("hal.dll");
        assert_eq!(enc.len(), 14);
        assert_eq!(decode_utf16(&enc), "hal.dll");
    }

    proptest::proptest! {
        /// Decoding straight from the bytes matches the standard lossy
        /// decoder on arbitrary buffers: unpaired surrogates, odd lengths
        /// (the stray byte is ignored) and non-ASCII units.
        #[test]
        fn utf16_decode_matches_the_std_lossy_decoder(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0..96),
        ) {
            let units: Vec<u16> = bytes
                .chunks_exact(2)
                .map(|c| u16::from_le_bytes([c[0], c[1]]))
                .collect();
            proptest::prop_assert_eq!(decode_utf16(&bytes), String::from_utf16_lossy(&units));
        }
    }

    fn entry_round_trip(width: AddressWidth) {
        let (mut vm, pool) = vm_with_pool(width);
        let offs = LdrOffsets::for_width(width);
        let head = pool;
        vm.write_ptr(head + offs.flink, head).unwrap();
        vm.write_ptr(head + offs.blink, head).unwrap();

        let entry = pool + 0x100;
        let name_buf = pool + 0x400;
        let name = encode_utf16("http.sys");
        vm.write_virt(name_buf, &name).unwrap();
        write_entry(
            &mut vm,
            &offs,
            entry,
            0xF7AB_0000,
            0x42000,
            name_buf,
            name.len() as u16,
        )
        .unwrap();
        link_tail(&mut vm, &offs, head, entry).unwrap();

        assert_eq!(vm.read_ptr(head + offs.flink).unwrap(), entry);
        assert_eq!(vm.read_ptr(head + offs.blink).unwrap(), entry);
        assert_eq!(vm.read_ptr(entry + offs.dll_base).unwrap(), 0xF7AB_0000);
        assert_eq!(read_base_dll_name(&vm, &offs, entry).unwrap(), "http.sys");
    }

    #[test]
    fn entry_round_trip_32() {
        entry_round_trip(AddressWidth::W32);
    }

    #[test]
    fn entry_round_trip_64() {
        entry_round_trip(AddressWidth::W64);
    }

    #[test]
    fn link_three_then_unlink_middle() {
        let width = AddressWidth::W32;
        let (mut vm, pool) = vm_with_pool(width);
        let offs = LdrOffsets::for_width(width);
        let head = pool;
        vm.write_ptr(head + offs.flink, head).unwrap();
        vm.write_ptr(head + offs.blink, head).unwrap();

        let entries = [pool + 0x100, pool + 0x200, pool + 0x300];
        for (i, &e) in entries.iter().enumerate() {
            let nb = pool + 0x800 + i as u64 * 0x40;
            let name = encode_utf16(&format!("m{i}.sys"));
            vm.write_virt(nb, &name).unwrap();
            write_entry(
                &mut vm,
                &offs,
                e,
                0x1000 * (i as u64 + 1),
                0x1000,
                nb,
                name.len() as u16,
            )
            .unwrap();
            link_tail(&mut vm, &offs, head, e).unwrap();
        }

        // Forward walk sees m0, m1, m2.
        let walk = |vm: &Vm| -> Vec<u64> {
            let mut out = Vec::new();
            let mut at = vm.read_ptr(head + offs.flink).unwrap();
            while at != head {
                out.push(at);
                at = vm.read_ptr(at + offs.flink).unwrap();
            }
            out
        };
        assert_eq!(walk(&vm), entries.to_vec());

        unlink(&mut vm, &offs, entries[1]).unwrap();
        assert_eq!(walk(&vm), vec![entries[0], entries[2]]);

        // Backward walk agrees.
        let mut back = Vec::new();
        let mut at = vm.read_ptr(head + offs.blink).unwrap();
        while at != head {
            back.push(at);
            at = vm.read_ptr(at + offs.blink).unwrap();
        }
        assert_eq!(back, vec![entries[2], entries[0]]);
    }
}
