//! PE parsing — the byte-level substance of the paper's Algorithm 1.
//!
//! `Module-Parser starts with IMAGE_DOS_HEADER`, verifies the "MZ" magic,
//! follows `e_lfanew` to `IMAGE_NT_HEADER`, verifies "PE", then walks
//! `NoOfSections` section headers and extracts each section's data at
//! `[VirtualAddress, VirtualSize]`. [`ParsedModule::parse_memory`] does
//! exactly that on a captured in-memory module image;
//! [`ParsedModule::parse_file`] does the same on a file-layout image (used by
//! the guest loader), reading section data at `PointerToRawData` instead.
//!
//! The parser returns byte *ranges* rather than copies so the caller decides
//! what to hash; ModChecker hashes each header and each section's data
//! separately (headers and content hashes are what get cross-compared).

use std::ops::Range;

use crate::consts::*;
use crate::error::MAX_SECTIONS;
use crate::{read_u16, read_u32, AddressWidth, PeError};

/// Which layout the byte buffer is in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// Loaded image: section data at `VirtualAddress` (what VMI captures).
    Memory,
    /// On-disk file: section data at `PointerToRawData`.
    File,
}

/// One parsed `IMAGE_SECTION_HEADER` plus where its data lives.
#[derive(Clone, Debug)]
pub struct SectionView {
    /// Section name with trailing NULs stripped (lossy for non-UTF-8 names).
    pub name: String,
    /// `VirtualAddress` (RVA of the section data when loaded).
    pub virtual_address: u32,
    /// `VirtualSize` (bytes of meaningful section data).
    pub virtual_size: u32,
    /// `SizeOfRawData` (file-aligned on-disk size).
    pub size_of_raw_data: u32,
    /// `PointerToRawData` (file offset of the data).
    pub pointer_to_raw_data: u32,
    /// `Characteristics` flags.
    pub characteristics: u32,
    /// Byte range of this section's 40-byte header within the image.
    pub header_range: Range<usize>,
    /// Byte range of this section's data within the parsed buffer (layout-
    /// dependent), already bounds-checked.
    pub data_range: Range<usize>,
}

impl SectionView {
    /// True if the section holds executable code (`IMAGE_SCN_CNT_CODE` or
    /// `IMAGE_SCN_MEM_EXECUTE`) — the content class whose hash the paper's
    /// Integrity-Checker compares after RVA adjustment.
    pub fn is_executable(&self) -> bool {
        self.characteristics & (SCN_CNT_CODE | SCN_MEM_EXECUTE) != 0
    }

    /// True if the section is writable (self-modifying data sections are not
    /// expected to be hash-stable and are excluded from content checks).
    pub fn is_writable(&self) -> bool {
        self.characteristics & SCN_MEM_WRITE != 0
    }
}

/// Parsed header geometry of a PE image. All ranges index the buffer that was
/// parsed; the struct owns no image bytes.
#[derive(Clone, Debug)]
pub struct ParsedModule {
    /// Pointer width inferred from the optional-header magic.
    pub width: AddressWidth,
    /// Layout the buffer was parsed as.
    pub layout: Layout,
    /// `e_lfanew` (start of NT headers).
    pub e_lfanew: u32,
    /// `IMAGE_DOS_HEADER` *plus the DOS stub program*: `[0, e_lfanew)`.
    ///
    /// The stub is covered by the DOS-header hash on purpose — the paper's
    /// experiment §V.B.3 ("DOS"→"CHK" in the stub message) is detected via
    /// the DOS header hash, so the stub must be part of that hash unit.
    pub dos_range: Range<usize>,
    /// `IMAGE_NT_HEADERS` composite: signature + file header + optional.
    pub nt_range: Range<usize>,
    /// `IMAGE_FILE_HEADER` within the NT headers.
    pub file_header_range: Range<usize>,
    /// `IMAGE_OPTIONAL_HEADER`.
    pub optional_range: Range<usize>,
    /// `SizeOfImage` from the optional header.
    pub size_of_image: u32,
    /// Parsed section headers, in file order.
    pub sections: Vec<SectionView>,
}

impl ParsedModule {
    /// Parses a loaded (memory-layout) module image — Algorithm 1.
    pub fn parse_memory(image: &[u8]) -> Result<Self, PeError> {
        Self::parse(image, Layout::Memory)
    }

    /// Parses an on-disk (file-layout) PE image.
    pub fn parse_file(image: &[u8]) -> Result<Self, PeError> {
        Self::parse(image, Layout::File)
    }

    /// Shared parse path.
    pub fn parse(image: &[u8], layout: Layout) -> Result<Self, PeError> {
        let magic = read_u16(image, 0).ok_or(PeError::Truncated {
            what: "DOS header",
            offset: 0,
        })?;
        if magic != DOS_MAGIC {
            return Err(PeError::BadDosMagic(magic));
        }
        let e_lfanew = read_u32(image, E_LFANEW_OFFSET).ok_or(PeError::Truncated {
            what: "e_lfanew",
            offset: E_LFANEW_OFFSET,
        })?;
        if (e_lfanew as usize) < DOS_HEADER_SIZE || e_lfanew as usize >= image.len() {
            return Err(PeError::BadLfanew(e_lfanew));
        }
        let nt = e_lfanew as usize;
        let signature = read_u32(image, nt).ok_or(PeError::Truncated {
            what: "PE signature",
            offset: nt,
        })?;
        if signature != PE_SIGNATURE {
            return Err(PeError::BadPeSignature(signature));
        }

        let fh = nt + PE_SIGNATURE_SIZE;
        let number_of_sections =
            read_u16(image, fh + FH_NUMBER_OF_SECTIONS).ok_or(PeError::Truncated {
                what: "IMAGE_FILE_HEADER",
                offset: fh,
            })?;
        if number_of_sections > MAX_SECTIONS {
            return Err(PeError::TooManySections(number_of_sections));
        }
        let size_of_optional =
            read_u16(image, fh + FH_SIZE_OF_OPTIONAL_HEADER).ok_or(PeError::Truncated {
                what: "SizeOfOptionalHeader",
                offset: fh + FH_SIZE_OF_OPTIONAL_HEADER,
            })?;

        let oh = fh + FILE_HEADER_SIZE;
        let opt_magic = read_u16(image, oh + OH_MAGIC).ok_or(PeError::Truncated {
            what: "IMAGE_OPTIONAL_HEADER",
            offset: oh,
        })?;
        let width = match opt_magic {
            OPTIONAL_MAGIC_PE32 => AddressWidth::W32,
            OPTIONAL_MAGIC_PE32_PLUS => AddressWidth::W64,
            other => return Err(PeError::BadOptionalMagic(other)),
        };
        let min_opt = match width {
            AddressWidth::W32 => OPTIONAL_HEADER_SIZE_32,
            AddressWidth::W64 => OPTIONAL_HEADER_SIZE_64,
        } as u16;
        if size_of_optional < min_opt {
            return Err(PeError::OptionalHeaderSizeMismatch {
                declared: size_of_optional,
                expected: min_opt,
            });
        }
        let optional_end = oh + size_of_optional as usize;
        if optional_end > image.len() {
            return Err(PeError::Truncated {
                what: "IMAGE_OPTIONAL_HEADER",
                offset: optional_end,
            });
        }
        let size_of_image = read_u32(image, oh + OH_SIZE_OF_IMAGE).ok_or(PeError::Truncated {
            what: "SizeOfImage",
            offset: oh + OH_SIZE_OF_IMAGE,
        })?;

        // Walk the section headers, which start right after the optional
        // header (the paper's Algorithm 1 loop over NoOfSections).
        let mut sections = Vec::with_capacity(number_of_sections as usize);
        for i in 0..number_of_sections as usize {
            let sh = optional_end + i * SECTION_HEADER_SIZE;
            let header_end = sh + SECTION_HEADER_SIZE;
            if header_end > image.len() {
                return Err(PeError::Truncated {
                    what: "IMAGE_SECTION_HEADER",
                    offset: sh,
                });
            }
            let raw_name = &image[sh + SH_NAME..sh + SH_NAME + SECTION_NAME_LEN];
            let name_len = raw_name
                .iter()
                .position(|&b| b == 0)
                .unwrap_or(SECTION_NAME_LEN);
            let name = String::from_utf8_lossy(&raw_name[..name_len]).into_owned();

            let field = |at: usize| {
                read_u32(image, sh + at).ok_or(PeError::Truncated {
                    what: "IMAGE_SECTION_HEADER",
                    offset: sh,
                })
            };
            let virtual_size = field(SH_VIRTUAL_SIZE)?;
            let virtual_address = field(SH_VIRTUAL_ADDRESS)?;
            let size_of_raw_data = field(SH_SIZE_OF_RAW_DATA)?;
            let pointer_to_raw_data = field(SH_POINTER_TO_RAW_DATA)?;
            let characteristics = field(SH_CHARACTERISTICS)?;

            let (start, len) = match layout {
                Layout::Memory => (virtual_address as u64, virtual_size as u64),
                // On disk only SizeOfRawData bytes exist; VirtualSize beyond
                // that is zero-fill the loader provides.
                Layout::File => (
                    pointer_to_raw_data as u64,
                    virtual_size.min(size_of_raw_data) as u64,
                ),
            };
            let end = start + len;
            if end > image.len() as u64 {
                return Err(PeError::SectionOutOfBounds {
                    name,
                    start,
                    len,
                    image_len: image.len(),
                });
            }

            sections.push(SectionView {
                name,
                virtual_address,
                virtual_size,
                size_of_raw_data,
                pointer_to_raw_data,
                characteristics,
                header_range: sh..header_end,
                data_range: start as usize..end as usize,
            });
        }

        Ok(ParsedModule {
            width,
            layout,
            e_lfanew,
            dos_range: 0..nt,
            nt_range: nt..optional_end,
            file_header_range: fh..oh,
            optional_range: oh..optional_end,
            size_of_image,
            sections,
        })
    }

    /// Section data bytes in the buffer this module was parsed from.
    ///
    /// Returns `None` only if the caller passes a different (shorter) buffer
    /// than was parsed.
    pub fn section_data<'a>(&self, image: &'a [u8], index: usize) -> Option<&'a [u8]> {
        image.get(self.sections.get(index)?.data_range.clone())
    }

    /// Alias of [`Self::section_data`] that documents file-layout intent.
    pub fn section_file_data<'a>(&self, image: &'a [u8], index: usize) -> Option<&'a [u8]> {
        debug_assert_eq!(self.layout, Layout::File);
        self.section_data(image, index)
    }

    /// Finds a section by name.
    pub fn find_section(&self, name: &str) -> Option<usize> {
        self.sections.iter().position(|s| s.name == name)
    }

    /// Bytes of the DOS header + stub.
    pub fn dos_bytes<'a>(&self, image: &'a [u8]) -> &'a [u8] {
        &image[self.dos_range.clone()]
    }

    /// Bytes of the composite NT headers.
    pub fn nt_bytes<'a>(&self, image: &'a [u8]) -> &'a [u8] {
        &image[self.nt_range.clone()]
    }

    /// Bytes of the file header.
    pub fn file_header_bytes<'a>(&self, image: &'a [u8]) -> &'a [u8] {
        &image[self.file_header_range.clone()]
    }

    /// Bytes of the optional header.
    pub fn optional_bytes<'a>(&self, image: &'a [u8]) -> &'a [u8] {
        &image[self.optional_range.clone()]
    }

    /// `AddressOfEntryPoint` from the optional header (an RVA). Kernel
    /// modules loaded by the corpus builder leave this 0 ("unset"); callers
    /// must treat 0 as *no entry point* rather than "entry at the headers".
    pub fn entry_point(&self, image: &[u8]) -> Option<u32> {
        read_u32(image, self.optional_range.start + OH_ADDRESS_OF_ENTRY_POINT)
    }

    /// The `index`-th data directory as `(VirtualAddress, Size)`.
    ///
    /// Returns `None` when the index is out of range or the optional header
    /// is too short to hold the slot.
    pub fn data_directory(&self, image: &[u8], index: usize) -> Option<(u32, u32)> {
        if index >= NUM_DATA_DIRECTORIES as usize {
            return None;
        }
        let first = match self.width {
            AddressWidth::W32 => OH_DATA_DIRECTORIES_32,
            AddressWidth::W64 => OH_DATA_DIRECTORIES_64,
        };
        let at = self.optional_range.start + first + index * DATA_DIRECTORY_SIZE;
        if at + DATA_DIRECTORY_SIZE > self.optional_range.end {
            return None;
        }
        Some((read_u32(image, at)?, read_u32(image, at + 4)?))
    }

    /// Maps an RVA to an offset into the buffer this module was parsed from,
    /// honoring the parse layout. RVAs below the first section fall in the
    /// headers, which both layouts keep at identity offsets.
    pub fn rva_to_offset(&self, rva: u32) -> Option<usize> {
        let first_va = self
            .sections
            .first()
            .map_or(u32::MAX, |s| s.virtual_address);
        if rva < first_va {
            return Some(rva as usize);
        }
        for sec in &self.sections {
            if rva >= sec.virtual_address
                && (rva - sec.virtual_address) < sec.data_range.len() as u32
            {
                return Some(sec.data_range.start + (rva - sec.virtual_address) as usize);
            }
        }
        None
    }

    /// Names of the DLLs referenced by the import directory, in descriptor
    /// order. Malformed tables yield a truncated (possibly empty) list
    /// rather than an error: the lint layer treats "whatever was readable"
    /// as the observable import surface.
    pub fn import_dlls(&self, image: &[u8]) -> Vec<String> {
        const MAX_DESCRIPTORS: usize = 64;
        const MAX_NAME: usize = 256;
        const DESCRIPTOR_SIZE: usize = 20;
        const DESC_NAME: usize = 12;

        let mut dlls = Vec::new();
        let Some((dir_rva, _)) = self.data_directory(image, DIR_IMPORT) else {
            return dlls;
        };
        if dir_rva == 0 {
            return dlls;
        }
        let Some(mut at) = self.rva_to_offset(dir_rva) else {
            return dlls;
        };
        for _ in 0..MAX_DESCRIPTORS {
            let Some(name_rva) = read_u32(image, at + DESC_NAME) else {
                break;
            };
            if name_rva == 0 {
                break;
            }
            if let Some(name_off) = self.rva_to_offset(name_rva) {
                let tail = &image[name_off.min(image.len())..];
                let len = tail
                    .iter()
                    .take(MAX_NAME)
                    .position(|&b| b == 0)
                    .unwrap_or(0);
                if len > 0 {
                    dlls.push(String::from_utf8_lossy(&tail[..len]).into_owned());
                }
            }
            at += DESCRIPTOR_SIZE;
        }
        dlls
    }

    /// Function RVAs from the export directory's `AddressOfFunctions` array
    /// (every exported entry point, before name/ordinal indirection).
    pub fn export_function_rvas(&self, image: &[u8]) -> Vec<u32> {
        const MAX_FUNCTIONS: u32 = 4096;
        const EXP_NUMBER_OF_FUNCTIONS: usize = 20;
        const EXP_ADDRESS_OF_FUNCTIONS: usize = 28;

        let mut rvas = Vec::new();
        let Some((dir_rva, _)) = self.data_directory(image, DIR_EXPORT) else {
            return rvas;
        };
        if dir_rva == 0 {
            return rvas;
        }
        let Some(dir_off) = self.rva_to_offset(dir_rva) else {
            return rvas;
        };
        let Some(count) = read_u32(image, dir_off + EXP_NUMBER_OF_FUNCTIONS) else {
            return rvas;
        };
        let Some(funcs_rva) = read_u32(image, dir_off + EXP_ADDRESS_OF_FUNCTIONS) else {
            return rvas;
        };
        let Some(funcs_off) = self.rva_to_offset(funcs_rva) else {
            return rvas;
        };
        for i in 0..count.min(MAX_FUNCTIONS) as usize {
            match read_u32(image, funcs_off + i * 4) {
                Some(rva) if rva != 0 => rvas.push(rva),
                _ => break,
            }
        }
        rvas
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{PeBuilder, SectionSpec};
    use crate::{write_u16 as w16, write_u32 as w32};

    fn sample() -> Vec<u8> {
        let mut b = PeBuilder::new(AddressWidth::W32);
        let t = b.add_section(SectionSpec::new(
            ".text",
            TEXT_CHARACTERISTICS,
            (0..200u32).map(|i| i as u8).collect(),
        ));
        b.add_section(SectionSpec::new(".data", DATA_CHARACTERISTICS, vec![7; 50]));
        b.add_reloc_sites(t, [16u32]);
        b.build().unwrap().bytes().to_vec()
    }

    #[test]
    fn header_ranges_nest_correctly() {
        let img = sample();
        let p = ParsedModule::parse_file(&img).unwrap();
        assert_eq!(p.dos_range.start, 0);
        assert_eq!(p.dos_range.end, p.e_lfanew as usize);
        assert!(p.nt_range.contains(&p.file_header_range.start));
        assert!(p.nt_range.contains(&(p.optional_range.end - 1)));
        assert_eq!(p.file_header_range.end, p.optional_range.start);
        // NT composite = 4-byte signature + file header + optional header.
        assert_eq!(
            p.nt_range.len(),
            4 + p.file_header_range.len() + p.optional_range.len()
        );
    }

    #[test]
    fn file_layout_section_data_matches_input() {
        let img = sample();
        let p = ParsedModule::parse_file(&img).unwrap();
        let text = p.section_data(&img, 0).unwrap();
        assert_eq!(text.len(), 200);
        assert_eq!(text[0], 0);
        assert_eq!(text[199], 199);
    }

    #[test]
    fn bad_dos_magic() {
        let mut img = sample();
        img[0] = b'X';
        assert!(matches!(
            ParsedModule::parse_file(&img),
            Err(PeError::BadDosMagic(_))
        ));
    }

    #[test]
    fn bad_pe_signature() {
        let mut img = sample();
        let lfanew = crate::read_u32(&img, E_LFANEW_OFFSET).unwrap() as usize;
        img[lfanew] = 0;
        assert!(matches!(
            ParsedModule::parse_file(&img),
            Err(PeError::BadPeSignature(_))
        ));
    }

    #[test]
    fn lfanew_out_of_range() {
        let mut img = sample();
        w32(&mut img, E_LFANEW_OFFSET, 0xFFFF_0000);
        assert!(matches!(
            ParsedModule::parse_file(&img),
            Err(PeError::BadLfanew(_))
        ));
    }

    #[test]
    fn truncated_buffer() {
        let img = sample();
        assert!(matches!(
            ParsedModule::parse_file(&img[..1]),
            Err(PeError::Truncated { .. })
        ));
        // Cut inside the section headers.
        let p = ParsedModule::parse_file(&img).unwrap();
        let cut = p.optional_range.end + 10;
        assert!(ParsedModule::parse_file(&img[..cut]).is_err());
    }

    #[test]
    fn hostile_section_count_rejected() {
        let mut img = sample();
        let lfanew = crate::read_u32(&img, E_LFANEW_OFFSET).unwrap() as usize;
        let fh = lfanew + PE_SIGNATURE_SIZE;
        w16(&mut img, fh + FH_NUMBER_OF_SECTIONS, u16::MAX);
        assert!(matches!(
            ParsedModule::parse_file(&img),
            Err(PeError::TooManySections(_))
        ));
    }

    #[test]
    fn hostile_section_range_rejected() {
        let mut img = sample();
        let p = ParsedModule::parse_file(&img).unwrap();
        let sh = p.sections[0].header_range.start;
        w32(&mut img, sh + SH_POINTER_TO_RAW_DATA, 0x7FFF_FFFF);
        assert!(matches!(
            ParsedModule::parse_file(&img),
            Err(PeError::SectionOutOfBounds { .. })
        ));
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Arbitrary bytes must never panic the parser — only return
            /// typed errors (or parse, for inputs that happen to be valid).
            #[test]
            fn random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
                let _ = ParsedModule::parse_memory(&data);
                let _ = ParsedModule::parse_file(&data);
            }

            /// A valid image with arbitrary single-byte corruption must
            /// never panic either (it may still parse, or error).
            #[test]
            fn corrupted_valid_image_never_panics(at in 0usize..2048, v in any::<u8>()) {
                let mut img = sample();
                let at = at % img.len();
                img[at] = v;
                let _ = ParsedModule::parse_file(&img);
                let _ = ParsedModule::parse_memory(&img);
            }
        }
    }

    #[test]
    fn executability_flags() {
        let img = sample();
        let p = ParsedModule::parse_file(&img).unwrap();
        assert!(p.sections[0].is_executable());
        assert!(!p.sections[1].is_executable());
        assert!(p.sections[1].is_writable());
    }

    #[test]
    fn entry_point_and_directories_read_back() {
        let img = sample();
        let p = ParsedModule::parse_file(&img).unwrap();
        // The test builder never sets an entry point: the RVA reads as 0.
        assert_eq!(p.entry_point(&img), Some(0));
        // Reloc directory exists (one site was added); export/import absent.
        let (reloc_rva, reloc_size) = p.data_directory(&img, DIR_BASERELOC).unwrap();
        assert!(reloc_rva != 0 && reloc_size != 0);
        assert_eq!(p.data_directory(&img, DIR_EXPORT), Some((0, 0)));
        assert_eq!(p.data_directory(&img, 16), None);
    }

    #[test]
    fn rva_mapping_covers_headers_and_sections() {
        let img = sample();
        let p = ParsedModule::parse_file(&img).unwrap();
        // Headers map to identity.
        assert_eq!(p.rva_to_offset(0), Some(0));
        // First section byte maps to its data range start (file layout).
        let s = &p.sections[0];
        assert_eq!(p.rva_to_offset(s.virtual_address), Some(s.data_range.start));
        // Past the end of all sections: unmapped.
        assert_eq!(p.rva_to_offset(0xFFFF_0000), None);
    }

    #[test]
    fn imports_and_exports_enumerate() {
        use crate::corpus::ModuleBlueprint;
        let bp = ModuleBlueprint::new("sample.sys", AddressWidth::W32, 32 * 1024)
            .with_imports(&[
                ("ntoskrnl.exe", &["ExAllocatePool"]),
                ("hal.dll", &["KfAcquireSpinLock"]),
            ])
            .with_exports(&["SampleEntry", "SampleUnload"]);
        let img = bp.build().unwrap().bytes().to_vec();
        let p = ParsedModule::parse_file(&img).unwrap();
        assert_eq!(p.import_dlls(&img), vec!["ntoskrnl.exe", "hal.dll"]);
        let exports = p.export_function_rvas(&img);
        assert_eq!(exports.len(), 2);
        let text = &p.sections[p.find_section(".text").unwrap()];
        for rva in exports {
            assert!(
                rva >= text.virtual_address && rva < text.virtual_address + text.virtual_size,
                "export RVAs land inside .text"
            );
        }
    }
}
