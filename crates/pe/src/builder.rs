//! Construction of byte-exact PE files.
//!
//! [`PeBuilder`] assembles a PE *file image* (file layout: headers followed by
//! sections at `PointerToRawData`). The guest module loader in `mc-guest`
//! then maps it to memory layout and applies base relocations, exactly the
//! pipeline a Windows kernel module goes through before ModChecker sees it.
//!
//! ## Relocation model
//!
//! The paper describes module files as containing *relative virtual
//! addresses* that the loader replaces with absolute addresses
//! (`abs = RVA + base`). We realize that literally: built images use
//! `ImageBase = 0`, so every address slot in the file holds the target's RVA
//! and the loader's relocation delta *is* the load base. This is numerically
//! identical to the standard PE scheme (slot holds `ImageBase + RVA`, loader
//! adds `base − ImageBase`) and keeps Equation (1) of the paper exact.

use crate::consts::*;
use crate::error::MAX_SECTIONS;
use crate::reloc::build_reloc_section;
use crate::{align_up, write_u16, write_u32, write_u64, AddressWidth, PeError};

/// One section to be placed in the image.
#[derive(Clone, Debug)]
pub struct SectionSpec {
    /// Section name, at most 8 bytes (e.g. `.text`).
    pub name: String,
    /// `IMAGE_SECTION_HEADER.Characteristics` flags.
    pub characteristics: u32,
    /// Raw section contents (unpadded; the builder pads to `FileAlignment`).
    pub data: Vec<u8>,
}

impl SectionSpec {
    /// Convenience constructor.
    pub fn new(name: &str, characteristics: u32, data: Vec<u8>) -> Self {
        SectionSpec {
            name: name.to_string(),
            characteristics,
            data,
        }
    }
}

/// An exported symbol: name plus the RVA-relative offset of its code within
/// the section it lives in.
#[derive(Clone, Debug)]
pub struct ExportSpec {
    /// Exported symbol name (e.g. `callMessageBox`).
    pub name: String,
    /// Offset of the function within the `.text` section.
    pub text_offset: u32,
}

/// An imported DLL with the function names pulled from it.
#[derive(Clone, Debug)]
pub struct ImportSpec {
    /// DLL file name (e.g. `inject.dll`).
    pub dll: String,
    /// Imported function names.
    pub functions: Vec<String>,
}

/// A relocation site: an address slot inside a section that the loader must
/// fix up.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RelocSite {
    /// Index into the builder's section list.
    pub section: usize,
    /// Byte offset of the slot within that section's data.
    pub offset: u32,
}

/// Builder for PE files. See the [module docs](self) for the relocation
/// model.
#[derive(Clone, Debug)]
pub struct PeBuilder {
    width: AddressWidth,
    is_dll: bool,
    timestamp: u32,
    dos_stub_message: Vec<u8>,
    entry_point: u32,
    sections: Vec<SectionSpec>,
    reloc_sites: Vec<RelocSite>,
    exports: Vec<ExportSpec>,
    export_dll_name: String,
    imports: Vec<ImportSpec>,
    emit_reloc_section: bool,
}

impl PeBuilder {
    /// Starts a builder for the given pointer width.
    pub fn new(width: AddressWidth) -> Self {
        PeBuilder {
            width,
            is_dll: false,
            timestamp: 0x4F5A_3C00, // fixed, deterministic build stamp
            dos_stub_message: DOS_STUB_MESSAGE.to_vec(),
            entry_point: 0,
            sections: Vec::new(),
            reloc_sites: Vec::new(),
            exports: Vec::new(),
            export_dll_name: String::new(),
            imports: Vec::new(),
            emit_reloc_section: true,
        }
    }

    /// Marks the image as a DLL (sets `IMAGE_FILE_DLL`).
    pub fn dll(mut self, yes: bool) -> Self {
        self.is_dll = yes;
        self
    }

    /// Overrides the deterministic link timestamp.
    pub fn timestamp(mut self, ts: u32) -> Self {
        self.timestamp = ts;
        self
    }

    /// Replaces the DOS stub message (experiment §V.B.3 needs to edit it).
    pub fn dos_stub_message(mut self, msg: &[u8]) -> Self {
        self.dos_stub_message = msg.to_vec();
        self
    }

    /// Sets `AddressOfEntryPoint` (an RVA, filled after layout if pointing at
    /// section 0; here the caller passes an RVA directly).
    pub fn entry_point(mut self, rva: u32) -> Self {
        self.entry_point = rva;
        self
    }

    /// Appends a section; returns its index for use in [`RelocSite`]s.
    pub fn add_section(&mut self, spec: SectionSpec) -> usize {
        self.sections.push(spec);
        self.sections.len() - 1
    }

    /// Registers an address slot the loader must relocate.
    pub fn add_reloc_site(&mut self, site: RelocSite) {
        self.reloc_sites.push(site);
    }

    /// Registers many relocation sites within one section.
    pub fn add_reloc_sites(&mut self, section: usize, offsets: impl IntoIterator<Item = u32>) {
        self.reloc_sites.extend(
            offsets
                .into_iter()
                .map(|offset| RelocSite { section, offset }),
        );
    }

    /// Declares exported functions (generates an `.edata` section).
    pub fn exports(&mut self, dll_name: &str, exports: Vec<ExportSpec>) {
        self.export_dll_name = dll_name.to_string();
        self.exports = exports;
    }

    /// Declares imported DLLs (generates an `.idata` section).
    pub fn imports(&mut self, imports: Vec<ImportSpec>) {
        self.imports = imports;
    }

    /// Appends one imported DLL to the existing import table (the DLL-
    /// hooking attack extends a module's imports without reshaping its
    /// section list).
    pub fn add_import(&mut self, import: ImportSpec) {
        self.imports.push(import);
    }

    /// Disables emission of the `.reloc` section while keeping the loader's
    /// site list (ablation: ModChecker must work without relocation
    /// metadata, which is exactly what Algorithm 2 provides).
    pub fn strip_reloc_section(mut self) -> Self {
        self.emit_reloc_section = false;
        self
    }

    /// Read access to a section's pending data (attacks edit blueprints).
    pub fn section_data(&self, index: usize) -> &[u8] {
        &self.sections[index].data
    }

    /// Mutable access to a section's pending data.
    pub fn section_data_mut(&mut self, index: usize) -> &mut Vec<u8> {
        &mut self.sections[index].data
    }

    /// Current relocation sites (attacks may need to shift them).
    pub fn reloc_sites(&self) -> &[RelocSite] {
        &self.reloc_sites
    }

    /// Mutable relocation site list.
    pub fn reloc_sites_mut(&mut self) -> &mut Vec<RelocSite> {
        &mut self.reloc_sites
    }

    /// Finds a section index by name.
    pub fn find_section(&self, name: &str) -> Option<usize> {
        self.sections.iter().position(|s| s.name == name)
    }

    /// Assembles the PE file.
    pub fn build(&self) -> Result<PeFile, PeError> {
        for s in &self.sections {
            if s.name.len() > SECTION_NAME_LEN {
                return Err(PeError::Build(format!(
                    "section name {:?} too long",
                    s.name
                )));
            }
        }
        for site in &self.reloc_sites {
            let sec = self.sections.get(site.section).ok_or_else(|| {
                PeError::Build(format!("reloc site in missing section {}", site.section))
            })?;
            let end = site.offset as usize + self.width.bytes();
            if end > sec.data.len() {
                return Err(PeError::Build(format!(
                    "reloc site at {:#x} overruns section {:?} ({} bytes)",
                    site.offset,
                    sec.name,
                    sec.data.len()
                )));
            }
        }

        // Assemble the full section list: user sections, then synthesized
        // .edata / .idata / .reloc. Their *contents* need final RVAs, so
        // first lay out sizes, then fill.
        let mut sections = self.sections.clone();
        let export_index = if self.exports.is_empty() {
            None
        } else {
            sections.push(SectionSpec::new(
                ".edata",
                RDATA_CHARACTERISTICS,
                Vec::new(),
            ));
            Some(sections.len() - 1)
        };
        let import_index = if self.imports.is_empty() {
            None
        } else {
            sections.push(SectionSpec::new(
                ".idata",
                RDATA_CHARACTERISTICS,
                Vec::new(),
            ));
            Some(sections.len() - 1)
        };
        // Reserve .edata/.idata space before layout: their size depends only
        // on the spec lists, not on RVAs.
        if let Some(i) = export_index {
            sections[i].data = vec![0u8; export_section_size(&self.export_dll_name, &self.exports)];
        }
        if let Some(i) = import_index {
            sections[i].data = vec![0u8; import_section_size(self.width, &self.imports)];
        }
        // The .reloc section's size depends only on the site list.
        let reloc_index = if self.emit_reloc_section && !self.reloc_sites.is_empty() {
            sections.push(SectionSpec::new(
                ".reloc",
                RELOC_CHARACTERISTICS,
                Vec::new(),
            ));
            Some(sections.len() - 1)
        } else {
            None
        };

        let nsections = sections.len();
        if nsections > MAX_SECTIONS as usize {
            return Err(PeError::Build(format!("{nsections} sections exceed cap")));
        }

        let opt_size = match self.width {
            AddressWidth::W32 => OPTIONAL_HEADER_SIZE_32,
            AddressWidth::W64 => OPTIONAL_HEADER_SIZE_64,
        };
        let stub = self.render_dos_stub();
        let e_lfanew = align_up((DOS_HEADER_SIZE + stub.len()) as u32, 8);
        let headers_end = e_lfanew as usize
            + PE_SIGNATURE_SIZE
            + FILE_HEADER_SIZE
            + opt_size
            + nsections * SECTION_HEADER_SIZE;
        let size_of_headers = align_up(headers_end as u32, DEFAULT_FILE_ALIGNMENT);

        // Pass 1: assign VirtualAddress / PointerToRawData section by
        // section. `.edata`/`.idata` sizes were reserved above; the `.reloc`
        // section is always last, so by the time the cursor reaches it every
        // relocation-slot RVA is known and its content (and thus size) can be
        // produced before it is placed.
        let mut layouts: Vec<SectionLayout> = Vec::with_capacity(nsections);
        let mut va = align_up(
            size_of_headers.max(DEFAULT_SECTION_ALIGNMENT),
            DEFAULT_SECTION_ALIGNMENT,
        );
        let mut raw = size_of_headers;
        let mut reloc_rvas: Vec<u32> = Vec::new();
        for (i, s) in sections.iter_mut().enumerate() {
            if Some(i) == reloc_index {
                reloc_rvas = self
                    .reloc_sites
                    .iter()
                    .map(|site| layouts[site.section].va + site.offset)
                    .collect();
                s.data = build_reloc_section(self.width, &reloc_rvas);
            }
            let vsize = s.data.len() as u32;
            let raw_size = align_up(vsize, DEFAULT_FILE_ALIGNMENT);
            layouts.push(SectionLayout {
                va,
                vsize,
                raw,
                raw_size,
            });
            va = align_up(va + vsize.max(1), DEFAULT_SECTION_ALIGNMENT);
            raw += raw_size;
        }
        if reloc_index.is_none() {
            reloc_rvas = self
                .reloc_sites
                .iter()
                .map(|site| layouts[site.section].va + site.offset)
                .collect();
        }
        let size_of_image = va;

        // Pass 2: fill `.edata`/`.idata` contents now that RVAs are known
        // (their sizes were fixed before layout, so this cannot shift
        // anything).
        if let Some(i) = export_index {
            sections[i].data = build_export_section(
                layouts[i].va,
                &self.export_dll_name,
                &self.exports,
                self.sections
                    .iter()
                    .position(|s| s.name == ".text")
                    .map_or(0, |t| layouts[t].va),
                self.timestamp,
            );
        }
        if let Some(i) = import_index {
            sections[i].data = build_import_section(self.width, layouts[i].va, &self.imports);
        }

        // Pass 3: emit bytes.
        let file_len = raw as usize;
        let mut bytes = vec![0u8; file_len.max(headers_end)];

        // DOS header + stub.
        write_u16(&mut bytes, 0, DOS_MAGIC);
        write_u16(&mut bytes, 2, 0x0090); // e_cblp, traditional stub value
        write_u16(&mut bytes, 4, 0x0003); // e_cp
        write_u16(&mut bytes, 8, 0x0004); // e_cparhdr
        write_u16(&mut bytes, 0x18, 0x0040); // e_lfarlc: marks "new" executable
        write_u32(&mut bytes, E_LFANEW_OFFSET, e_lfanew);
        bytes[DOS_HEADER_SIZE..DOS_HEADER_SIZE + stub.len()].copy_from_slice(&stub);

        // NT signature.
        let nt = e_lfanew as usize;
        write_u32(&mut bytes, nt, PE_SIGNATURE);

        // IMAGE_FILE_HEADER.
        let fh = nt + PE_SIGNATURE_SIZE;
        write_u16(&mut bytes, fh + FH_MACHINE, self.width.machine());
        write_u16(&mut bytes, fh + FH_NUMBER_OF_SECTIONS, nsections as u16);
        write_u32(&mut bytes, fh + FH_TIME_DATE_STAMP, self.timestamp);
        write_u16(&mut bytes, fh + FH_SIZE_OF_OPTIONAL_HEADER, opt_size as u16);
        let mut fchar = FILE_EXECUTABLE_IMAGE;
        if self.width == AddressWidth::W32 {
            fchar |= FILE_32BIT_MACHINE;
        }
        if self.is_dll {
            fchar |= FILE_DLL;
        }
        write_u16(&mut bytes, fh + FH_CHARACTERISTICS, fchar);

        // IMAGE_OPTIONAL_HEADER.
        let oh = fh + FILE_HEADER_SIZE;
        write_u16(&mut bytes, oh + OH_MAGIC, self.width.optional_magic());
        bytes[oh + 2] = 9; // MajorLinkerVersion, cosmetic
        write_u32(&mut bytes, oh + OH_ADDRESS_OF_ENTRY_POINT, self.entry_point);
        match self.width {
            AddressWidth::W32 => write_u32(&mut bytes, oh + OH_IMAGE_BASE_32, 0),
            AddressWidth::W64 => write_u64(&mut bytes, oh + OH_IMAGE_BASE_64, 0),
        }
        write_u32(
            &mut bytes,
            oh + OH_SECTION_ALIGNMENT,
            DEFAULT_SECTION_ALIGNMENT,
        );
        write_u32(&mut bytes, oh + OH_FILE_ALIGNMENT, DEFAULT_FILE_ALIGNMENT);
        write_u32(&mut bytes, oh + OH_SIZE_OF_IMAGE, size_of_image);
        write_u32(&mut bytes, oh + OH_SIZE_OF_HEADERS, size_of_headers);
        let (nrva_off, dirs_off) = match self.width {
            AddressWidth::W32 => (OH_NUMBER_OF_RVA_AND_SIZES_32, OH_DATA_DIRECTORIES_32),
            AddressWidth::W64 => (OH_NUMBER_OF_RVA_AND_SIZES_64, OH_DATA_DIRECTORIES_64),
        };
        write_u32(&mut bytes, oh + nrva_off, NUM_DATA_DIRECTORIES);
        let set_dir = |bytes: &mut [u8], dir: usize, rva: u32, size: u32| {
            let at = oh + dirs_off + dir * DATA_DIRECTORY_SIZE;
            write_u32(bytes, at, rva);
            write_u32(bytes, at + 4, size);
        };
        if let Some(i) = export_index {
            set_dir(
                &mut bytes,
                DIR_EXPORT,
                layouts[i].va,
                sections[i].data.len() as u32,
            );
        }
        if let Some(i) = import_index {
            set_dir(
                &mut bytes,
                DIR_IMPORT,
                layouts[i].va,
                sections[i].data.len() as u32,
            );
        }
        if let Some(i) = reloc_index {
            set_dir(
                &mut bytes,
                DIR_BASERELOC,
                layouts[i].va,
                sections[i].data.len() as u32,
            );
        }

        // Section headers.
        let sh0 = oh + opt_size;
        for (i, (s, l)) in sections.iter().zip(&layouts).enumerate() {
            let sh = sh0 + i * SECTION_HEADER_SIZE;
            let name_bytes = s.name.as_bytes();
            bytes[sh + SH_NAME..sh + SH_NAME + name_bytes.len()].copy_from_slice(name_bytes);
            write_u32(&mut bytes, sh + SH_VIRTUAL_SIZE, l.vsize);
            write_u32(&mut bytes, sh + SH_VIRTUAL_ADDRESS, l.va);
            write_u32(&mut bytes, sh + SH_SIZE_OF_RAW_DATA, l.raw_size);
            write_u32(&mut bytes, sh + SH_POINTER_TO_RAW_DATA, l.raw);
            write_u32(&mut bytes, sh + SH_CHARACTERISTICS, s.characteristics);
        }

        // Section raw data.
        for (s, l) in sections.iter().zip(&layouts) {
            let at = l.raw as usize;
            bytes[at..at + s.data.len()].copy_from_slice(&s.data);
        }

        Ok(PeFile {
            bytes,
            width: self.width,
            reloc_rvas,
            size_of_image,
        })
    }

    /// Renders the 16-bit DOS stub program: minimal real-mode code that
    /// prints the stub message via INT 21h, followed by the message bytes.
    fn render_dos_stub(&self) -> Vec<u8> {
        // push cs / pop ds / mov dx, 0x0e / mov ah, 9 / int 21h /
        // mov ax, 0x4c01 / int 21h — the canonical MSVC stub prologue.
        let mut stub = vec![
            0x0E, 0x1F, 0xBA, 0x0E, 0x00, 0xB4, 0x09, 0xCD, 0x21, 0xB8, 0x01, 0x4C, 0xCD, 0x21,
        ];
        stub.extend_from_slice(&self.dos_stub_message);
        stub
    }
}

#[derive(Clone, Copy, Debug)]
struct SectionLayout {
    va: u32,
    vsize: u32,
    raw: u32,
    raw_size: u32,
}

/// A finished PE file image (file layout), as it would sit on the guest's
/// disk before the kernel loads it.
#[derive(Clone, Debug)]
pub struct PeFile {
    bytes: Vec<u8>,
    width: AddressWidth,
    /// RVAs of every address slot the loader must fix up. This duplicates the
    /// `.reloc` section's content in decoded form so the guest loader does
    /// not need to re-parse it (the parser can, for the ablation).
    reloc_rvas: Vec<u32>,
    size_of_image: u32,
}

impl PeFile {
    /// Raw file bytes (file layout).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Pointer width the image was built for.
    pub fn width(&self) -> AddressWidth {
        self.width
    }

    /// Decoded relocation-slot RVAs.
    pub fn reloc_rvas(&self) -> &[u32] {
        &self.reloc_rvas
    }

    /// `SizeOfImage`: bytes of guest virtual address space the loaded module
    /// occupies.
    pub fn size_of_image(&self) -> u32 {
        self.size_of_image
    }

    /// Creates a `PeFile` from raw bytes plus externally known relocation
    /// info (used by attacks that splice bytes directly).
    pub fn from_parts(
        bytes: Vec<u8>,
        width: AddressWidth,
        reloc_rvas: Vec<u32>,
        size_of_image: u32,
    ) -> Self {
        PeFile {
            bytes,
            width,
            reloc_rvas,
            size_of_image,
        }
    }
}

fn export_section_size(dll_name: &str, exports: &[ExportSpec]) -> usize {
    // IMAGE_EXPORT_DIRECTORY + functions + names + ordinals + string blob.
    let strings: usize =
        dll_name.len() + 1 + exports.iter().map(|e| e.name.len() + 1).sum::<usize>();
    40 + exports.len() * (4 + 4 + 2) + strings
}

fn build_export_section(
    section_va: u32,
    dll_name: &str,
    exports: &[ExportSpec],
    text_va: u32,
    timestamp: u32,
) -> Vec<u8> {
    let n = exports.len();
    let mut out = vec![0u8; export_section_size(dll_name, exports)];
    let functions_off = 40;
    let names_off = functions_off + 4 * n;
    let ordinals_off = names_off + 4 * n;
    let mut strings_off = ordinals_off + 2 * n;

    // IMAGE_EXPORT_DIRECTORY.
    write_u32(&mut out, 4, timestamp);
    let dll_name_rva = section_va + strings_off as u32;
    write_u32(&mut out, 12, dll_name_rva); // Name
    write_u32(&mut out, 16, 1); // Base ordinal
    write_u32(&mut out, 20, n as u32); // NumberOfFunctions
    write_u32(&mut out, 24, n as u32); // NumberOfNames
    write_u32(&mut out, 28, section_va + functions_off as u32);
    write_u32(&mut out, 32, section_va + names_off as u32);
    write_u32(&mut out, 36, section_va + ordinals_off as u32);

    out[strings_off..strings_off + dll_name.len()].copy_from_slice(dll_name.as_bytes());
    strings_off += dll_name.len() + 1;

    for (i, e) in exports.iter().enumerate() {
        write_u32(&mut out, functions_off + 4 * i, text_va + e.text_offset);
        write_u32(&mut out, names_off + 4 * i, section_va + strings_off as u32);
        write_u16(&mut out, ordinals_off + 2 * i, i as u16);
        out[strings_off..strings_off + e.name.len()].copy_from_slice(e.name.as_bytes());
        strings_off += e.name.len() + 1;
    }
    out
}

fn import_section_size(width: AddressWidth, imports: &[ImportSpec]) -> usize {
    // Mirrors build_import_section's cursor walk exactly so the reserved
    // size equals the written size.
    let thunk = width.bytes();
    let mut size = 20 * (imports.len() + 1); // descriptors + null terminator
    for imp in imports {
        // Two thunk arrays (OriginalFirstThunk + FirstThunk), each
        // null-terminated.
        size += 2 * thunk * (imp.functions.len() + 1);
        for f in &imp.functions {
            if size % 2 == 1 {
                size += 1; // keep hint/name entries 2-aligned
            }
            size += 2 + f.len() + 1; // hint u16 + name + NUL
        }
        size += imp.dll.len() + 1;
    }
    size
}

fn build_import_section(width: AddressWidth, section_va: u32, imports: &[ImportSpec]) -> Vec<u8> {
    let mut out = vec![0u8; import_section_size(width, imports)];
    let thunk = width.bytes();
    let mut cursor = 20 * (imports.len() + 1);

    for (d, imp) in imports.iter().enumerate() {
        let desc = 20 * d;
        let oft_off = cursor;
        cursor += thunk * (imp.functions.len() + 1);
        let ft_off = cursor;
        cursor += thunk * (imp.functions.len() + 1);

        // Hint/name entries, recording each one's offset.
        let mut hint_offs = Vec::with_capacity(imp.functions.len());
        for f in &imp.functions {
            if cursor % 2 == 1 {
                cursor += 1;
            }
            hint_offs.push(cursor);
            // hint left 0; name follows
            out[cursor + 2..cursor + 2 + f.len()].copy_from_slice(f.as_bytes());
            cursor += 2 + f.len() + 1;
        }
        let dll_name_off = cursor;
        out[cursor..cursor + imp.dll.len()].copy_from_slice(imp.dll.as_bytes());
        cursor += imp.dll.len() + 1;

        // Thunk arrays point at the hint/name entries.
        for (i, h) in hint_offs.iter().enumerate() {
            let rva = (section_va + *h as u32) as u64;
            match width {
                AddressWidth::W32 => {
                    write_u32(&mut out, oft_off + thunk * i, rva as u32);
                    write_u32(&mut out, ft_off + thunk * i, rva as u32);
                }
                AddressWidth::W64 => {
                    write_u64(&mut out, oft_off + thunk * i, rva);
                    write_u64(&mut out, ft_off + thunk * i, rva);
                }
            }
        }

        write_u32(&mut out, desc, section_va + oft_off as u32); // OriginalFirstThunk
        write_u32(&mut out, desc + 12, section_va + dll_name_off as u32); // Name
        write_u32(&mut out, desc + 16, section_va + ft_off as u32); // FirstThunk
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::ParsedModule;

    fn tiny_builder() -> PeBuilder {
        let mut b = PeBuilder::new(AddressWidth::W32);
        let text = b.add_section(SectionSpec::new(
            ".text",
            TEXT_CHARACTERISTICS,
            vec![0x90; 64],
        ));
        b.add_section(SectionSpec::new(
            ".data",
            DATA_CHARACTERISTICS,
            vec![0xAA; 32],
        ));
        b.add_reloc_sites(text, [4u32, 20]);
        b
    }

    #[test]
    fn build_produces_parseable_file() {
        let pe = tiny_builder().build().unwrap();
        let parsed = ParsedModule::parse_file(pe.bytes()).unwrap();
        // .text, .data, synthesized .reloc
        assert_eq!(parsed.sections.len(), 3);
        assert_eq!(parsed.sections[0].name, ".text");
        assert_eq!(parsed.sections[1].name, ".data");
        assert_eq!(parsed.sections[2].name, ".reloc");
        assert!(parsed.sections[0].is_executable());
        assert!(!parsed.sections[1].is_executable());
    }

    #[test]
    fn dos_stub_contains_message() {
        let pe = tiny_builder().build().unwrap();
        let window = pe.bytes();
        let msg = DOS_STUB_MESSAGE;
        assert!(
            window.windows(msg.len()).any(|w| w == msg),
            "stub message missing"
        );
    }

    #[test]
    fn reloc_rvas_point_into_text() {
        let pe = tiny_builder().build().unwrap();
        let parsed = ParsedModule::parse_file(pe.bytes()).unwrap();
        let text = &parsed.sections[0];
        for rva in pe.reloc_rvas() {
            assert!(
                *rva >= text.virtual_address && *rva < text.virtual_address + text.virtual_size,
                "reloc rva {rva:#x} outside .text"
            );
        }
        assert_eq!(pe.reloc_rvas().len(), 2);
    }

    #[test]
    fn oversized_section_name_rejected() {
        let mut b = PeBuilder::new(AddressWidth::W32);
        b.add_section(SectionSpec::new(".waytoolong", 0, vec![]));
        assert!(matches!(b.build(), Err(PeError::Build(_))));
    }

    #[test]
    fn reloc_site_overrun_rejected() {
        let mut b = PeBuilder::new(AddressWidth::W32);
        let t = b.add_section(SectionSpec::new(".text", TEXT_CHARACTERISTICS, vec![0; 8]));
        b.add_reloc_site(RelocSite {
            section: t,
            offset: 6,
        });
        assert!(matches!(b.build(), Err(PeError::Build(_))));
    }

    #[test]
    fn stripping_reloc_section_keeps_site_list() {
        let pe = tiny_builder().strip_reloc_section().build().unwrap();
        let parsed = ParsedModule::parse_file(pe.bytes()).unwrap();
        assert_eq!(parsed.sections.len(), 2, "no .reloc emitted");
        assert_eq!(pe.reloc_rvas().len(), 2, "loader info retained");
    }

    #[test]
    fn exports_and_imports_round_trip_structurally() {
        let mut b = PeBuilder::new(AddressWidth::W32);
        let t = b.add_section(SectionSpec::new(
            ".text",
            TEXT_CHARACTERISTICS,
            vec![0xC3; 32],
        ));
        b.add_reloc_sites(t, [0u32]);
        b.exports(
            "inject.dll",
            vec![ExportSpec {
                name: "callMessageBox".into(),
                text_offset: 16,
            }],
        );
        b.imports(vec![ImportSpec {
            dll: "ntoskrnl.exe".into(),
            functions: vec!["IoCreateDevice".into(), "IoDeleteDevice".into()],
        }]);
        let pe = b.build().unwrap();
        let parsed = ParsedModule::parse_file(pe.bytes()).unwrap();
        let names: Vec<&str> = parsed.sections.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec![".text", ".edata", ".idata", ".reloc"]);
        // The export section must contain the symbol and DLL names.
        let edata = parsed.section_file_data(pe.bytes(), 1).unwrap();
        assert!(edata
            .windows(b"callMessageBox".len())
            .any(|w| w == b"callMessageBox"));
        assert!(edata
            .windows(b"inject.dll".len())
            .any(|w| w == b"inject.dll"));
        let idata = parsed.section_file_data(pe.bytes(), 2).unwrap();
        assert!(idata
            .windows(b"IoCreateDevice".len())
            .any(|w| w == b"IoCreateDevice"));
    }

    #[test]
    fn dll_flag_and_timestamp_land_in_file_header() {
        use crate::consts::{
            E_LFANEW_OFFSET, FH_CHARACTERISTICS, FH_TIME_DATE_STAMP, FILE_DLL, PE_SIGNATURE_SIZE,
        };
        let mut b = PeBuilder::new(AddressWidth::W32)
            .dll(true)
            .timestamp(0x1234_5678);
        b.add_section(SectionSpec::new(
            ".text",
            TEXT_CHARACTERISTICS,
            vec![0x90; 16],
        ));
        let pe = b.build().unwrap();
        let lfanew = crate::read_u32(pe.bytes(), E_LFANEW_OFFSET).unwrap() as usize;
        let fh = lfanew + PE_SIGNATURE_SIZE;
        assert_eq!(
            crate::read_u32(pe.bytes(), fh + FH_TIME_DATE_STAMP).unwrap(),
            0x1234_5678
        );
        let fchar = crate::read_u16(pe.bytes(), fh + FH_CHARACTERISTICS).unwrap();
        assert_ne!(fchar & FILE_DLL, 0);
    }

    #[test]
    fn entry_point_written_to_optional_header() {
        use crate::consts::{E_LFANEW_OFFSET, OH_ADDRESS_OF_ENTRY_POINT, PE_SIGNATURE_SIZE};
        let mut b = PeBuilder::new(AddressWidth::W32).entry_point(0x1040);
        b.add_section(SectionSpec::new(
            ".text",
            TEXT_CHARACTERISTICS,
            vec![0x90; 16],
        ));
        let pe = b.build().unwrap();
        let lfanew = crate::read_u32(pe.bytes(), E_LFANEW_OFFSET).unwrap() as usize;
        let oh = lfanew + PE_SIGNATURE_SIZE + FILE_HEADER_SIZE;
        assert_eq!(
            crate::read_u32(pe.bytes(), oh + OH_ADDRESS_OF_ENTRY_POINT).unwrap(),
            0x1040
        );
    }

    #[test]
    fn build_is_idempotent() {
        let b = tiny_builder();
        assert_eq!(b.build().unwrap().bytes(), b.build().unwrap().bytes());
    }

    #[test]
    fn sixty_four_bit_build_parses() {
        let mut b = PeBuilder::new(AddressWidth::W64);
        let t = b.add_section(SectionSpec::new(
            ".text",
            TEXT_CHARACTERISTICS,
            vec![0x90; 128],
        ));
        b.add_reloc_sites(t, [8u32, 100]);
        let pe = b.build().unwrap();
        let parsed = ParsedModule::parse_file(pe.bytes()).unwrap();
        assert_eq!(parsed.width, AddressWidth::W64);
        assert_eq!(parsed.sections[0].name, ".text");
    }
}
