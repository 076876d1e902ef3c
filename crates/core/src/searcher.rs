//! Module-Searcher — the only ModChecker component that reads guest memory.
//!
//! From the paper (§IV.A): the list of active modules is a doubly linked
//! list headed by the global `PsLoadedModuleList`; each node is an
//! `LDR_DATA_TABLE_ENTRY` carrying `BaseDllName` and `DllBase`.
//! Module-Searcher resolves the head symbol, traverses forward via `FLINK`
//! comparing names, and on a hit copies the whole module from guest memory
//! into a local buffer, page by page.
//!
//! Hostile-input hardening (the walk consumes attacker-controlled memory):
//! bounded list length, cycle detection, size caps on both names and module
//! images, and typed errors instead of panics on unreadable pointers.

use mc_guest::ldr::LdrOffsets;
use mc_guest::PS_LOADED_MODULE_LIST;
use mc_hypervisor::{VmId, PAGE_SIZE};
use mc_vmi::{VaSet, VectoredRead, VmiSession};

use crate::error::{CheckError, MAX_LIST_WALK, MAX_MODULE_SIZE};

/// Upper bound on a `BaseDllName` length in bytes (Windows caps paths well
/// below this; a forged 64 KB length must not trigger a huge read).
const MAX_NAME_BYTES: u16 = 512;

/// Reads a `BaseDllName` buffer of `len` bytes (already capped at
/// [`MAX_NAME_BYTES`]) into a stack buffer and decodes it.
fn read_name(session: &mut VmiSession<'_>, buffer: u64, len: u16) -> Result<String, CheckError> {
    let mut raw = [0u8; MAX_NAME_BYTES as usize];
    let raw = &mut raw[..usize::from(len)];
    session.read_va(buffer, raw)?;
    Ok(mc_guest::ldr::decode_utf16(raw))
}

/// A module list entry as discovered by traversal (no image bytes yet).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModuleRef {
    /// `BaseDllName` as decoded from the guest.
    pub name: String,
    /// `DllBase`.
    pub base: u64,
    /// `SizeOfImage`.
    pub size: u64,
    /// VA of the `LDR_DATA_TABLE_ENTRY` this came from.
    pub entry_va: u64,
}

/// A module image captured from one VM.
#[derive(Clone, Debug)]
pub struct ModuleImage {
    /// VM the image was captured from.
    pub vm: VmId,
    /// Domain name of that VM.
    pub vm_name: String,
    /// Module name as found in the list.
    pub name: String,
    /// Load base (`DllBase`) — the `Base address` of Equation (1).
    pub base: u64,
    /// The captured bytes (`SizeOfImage` long, memory layout).
    pub bytes: Vec<u8>,
}

/// Module-Searcher: list traversal and page-wise image capture.
#[derive(Clone, Copy, Debug)]
pub struct ModuleSearcher;

impl ModuleSearcher {
    /// Walks the loaded-module list and returns every entry.
    pub fn list_modules(session: &mut VmiSession<'_>) -> Result<Vec<ModuleRef>, CheckError> {
        let mut out = Vec::new();
        Self::walk(session, |entry| {
            out.push(entry);
            None
        })?;
        Ok(out)
    }

    /// Finds a module by name (case-insensitive, as Windows treats
    /// `BaseDllName`) without copying its image. An entry whose
    /// `SizeOfImage` is implausible is a [`CheckError::ImplausibleSize`]
    /// here, before any caller sizes a read, probe or watch by it.
    pub fn find_ref(session: &mut VmiSession<'_>, module: &str) -> Result<ModuleRef, CheckError> {
        let entry = Self::walk(session, |entry| {
            entry.name.eq_ignore_ascii_case(module).then_some(entry)
        })?
        .ok_or_else(|| CheckError::ModuleNotFound {
            vm: session.vm_name().to_string(),
            module: module.to_string(),
        })?;
        Self::check_size(session, &entry)?;
        Ok(entry)
    }

    /// The one LDR walk: follows `FLINK` from `PsLoadedModuleList`, hands
    /// each entry to `visit`, and stops at the first entry `visit` returns
    /// (before reading that entry's `FLINK`). Bounded by
    /// [`MAX_LIST_WALK`] entries and cycle-checked, either failure a
    /// [`CheckError::ListCorrupt`] carrying the entries read so far.
    fn walk(
        session: &mut VmiSession<'_>,
        mut visit: impl FnMut(ModuleRef) -> Option<ModuleRef>,
    ) -> Result<Option<ModuleRef>, CheckError> {
        let offs = LdrOffsets::for_width(session.width());
        let head = session.symbol(PS_LOADED_MODULE_LIST)?;
        let mut seen = VaSet::default();
        let mut walked = 0usize;
        let mut at = session.read_ptr(head + offs.flink)?;
        while at != head {
            if walked >= MAX_LIST_WALK || !seen.insert(at) {
                return Err(CheckError::ListCorrupt {
                    vm: session.vm_name().to_string(),
                    walked,
                });
            }
            walked += 1;
            if let Some(found) = visit(Self::read_entry(session, &offs, at)?) {
                return Ok(Some(found));
            }
            at = session.read_ptr(at + offs.flink)?;
        }
        Ok(None)
    }

    /// Finds a module and copies its whole image out of the guest,
    /// page by page (the paper notes this iterative page access is why
    /// Module-Searcher dominates ModChecker's runtime).
    pub fn find(session: &mut VmiSession<'_>, module: &str) -> Result<ModuleImage, CheckError> {
        let entry = Self::find_ref(session, module)?;
        Self::capture(session, &entry)
    }

    /// Copies the image referenced by `entry` (any listed entry; its size
    /// is checked first) out of the guest into a fresh buffer.
    pub fn capture(
        session: &mut VmiSession<'_>,
        entry: &ModuleRef,
    ) -> Result<ModuleImage, CheckError> {
        Self::check_size(session, entry)?;
        Self::capture_into(session, entry, vec![0u8; entry.size as usize]).map_err(|(e, _)| e)
    }

    /// Fills `bytes` (already `entry.size` long, the size checked) with
    /// the image `entry` references. A failed read hands the buffer back
    /// with its error, so the caller can return it to the arena it came
    /// from.
    ///
    /// On a fast-capture session the whole image is fetched by one
    /// scatter-gather stable read — the plan walks each page once and
    /// foreign-maps contiguous physical runs in one go. Legacy sessions
    /// keep the paper's page-by-page loop ("an action that requires an
    /// iterative access of the memory until the whole module is copied to
    /// a local buffer").
    pub(crate) fn capture_into(
        session: &mut VmiSession<'_>,
        entry: &ModuleRef,
        mut bytes: Vec<u8>,
    ) -> Result<ModuleImage, (CheckError, Vec<u8>)> {
        let read = if session.fast_capture() {
            let mut reqs = [VectoredRead {
                va: entry.base,
                buf: bytes.as_mut_slice(),
            }];
            // Stable (double-checked): a torn page must surface as a typed
            // error, never as a phantom integrity mismatch.
            session.read_va_vectored_stable(&mut reqs)
        } else {
            bytes
                .chunks_mut(PAGE_SIZE)
                .enumerate()
                .try_for_each(|(page_idx, chunk)| {
                    let va = entry.base + (page_idx * PAGE_SIZE) as u64;
                    session.read_va_stable(va, chunk)
                })
        };
        if let Err(e) = read {
            return Err((e.into(), bytes));
        }
        Ok(ModuleImage {
            vm: session.vm_id(),
            vm_name: session.vm_name().to_string(),
            name: entry.name.clone(),
            base: entry.base,
            bytes,
        })
    }

    /// Rejects an entry whose `SizeOfImage` is zero or above
    /// [`MAX_MODULE_SIZE`] as [`CheckError::ImplausibleSize`]. The size
    /// is guest-controlled, so [`Self::find_ref`] and [`Self::capture`]
    /// check it before anything is sized by it.
    fn check_size(session: &VmiSession<'_>, entry: &ModuleRef) -> Result<(), CheckError> {
        if entry.size == 0 || entry.size > MAX_MODULE_SIZE {
            return Err(CheckError::ImplausibleSize {
                vm: session.vm_name().to_string(),
                module: entry.name.clone(),
                size: entry.size,
            });
        }
        Ok(())
    }

    /// Re-reads only the pages of `image` whose index appears in
    /// `dirty_pages`, in one scatter-gather stable read (the partial-hit
    /// refresh of an otherwise-valid cached capture). A page index listed
    /// twice or past the end of `bytes` is a [`CheckError::BadPageList`],
    /// raised before any guest read.
    pub fn refresh_pages(
        session: &mut VmiSession<'_>,
        base: u64,
        bytes: &mut [u8],
        dirty_pages: &[usize],
    ) -> Result<(), CheckError> {
        if dirty_pages.is_empty() {
            return Ok(());
        }
        let mut chunks: Vec<Option<&mut [u8]>> = bytes.chunks_mut(PAGE_SIZE).map(Some).collect();
        let pages = chunks.len();
        let mut reqs = Vec::with_capacity(dirty_pages.len());
        for &page in dirty_pages {
            let Some(buf) = chunks.get_mut(page).and_then(Option::take) else {
                return Err(CheckError::BadPageList { page, pages });
            };
            reqs.push(VectoredRead {
                va: base + (page * PAGE_SIZE) as u64,
                buf,
            });
        }
        session.read_va_vectored_stable(&mut reqs)?;
        Ok(())
    }

    /// Reads one `LDR_DATA_TABLE_ENTRY`.
    fn read_entry(
        session: &mut VmiSession<'_>,
        offs: &LdrOffsets,
        entry_va: u64,
    ) -> Result<ModuleRef, CheckError> {
        if session.fast_capture() {
            return Self::read_entry_vectored(session, offs, entry_va);
        }
        let base = session.read_ptr(entry_va + offs.dll_base)?;
        let size = match offs.ptr {
            4 => session.read_u32(entry_va + offs.size_of_image)? as u64,
            _ => {
                let lo = session.read_u32(entry_va + offs.size_of_image)? as u64;
                let hi = session.read_u32(entry_va + offs.size_of_image + 4)? as u64;
                (hi << 32) | lo
            }
        };
        // UNICODE_STRING BaseDllName.
        let ustr = entry_va + offs.base_dll_name;
        let len = session.read_u16(ustr)?.min(MAX_NAME_BYTES) & !1;
        let buffer = session.read_ptr(ustr + offs.ustr_buffer)?;
        Ok(ModuleRef {
            name: read_name(session, buffer, len)?,
            base,
            size,
            entry_va,
        })
    }

    /// Fast-path `read_entry`: every fixed-offset field of the
    /// `LDR_DATA_TABLE_ENTRY` (base, size, name length, name buffer
    /// pointer) lands in one vectored plan, then a second read fetches
    /// the name bytes the pointer revealed. Two round-trips instead of
    /// five-plus, and the entry's page is walked once, not per field.
    fn read_entry_vectored(
        session: &mut VmiSession<'_>,
        offs: &LdrOffsets,
        entry_va: u64,
    ) -> Result<ModuleRef, CheckError> {
        let psize = offs.ptr as usize;
        let ustr = entry_va + offs.base_dll_name;
        let mut base_b = [0u8; 8];
        let mut size_b = [0u8; 8];
        let mut len_b = [0u8; 2];
        let mut bufp_b = [0u8; 8];
        {
            let mut reqs = [
                VectoredRead {
                    va: entry_va + offs.dll_base,
                    buf: &mut base_b[..psize],
                },
                VectoredRead {
                    va: entry_va + offs.size_of_image,
                    buf: &mut size_b[..psize],
                },
                VectoredRead {
                    va: ustr,
                    buf: &mut len_b,
                },
                VectoredRead {
                    va: ustr + offs.ustr_buffer,
                    buf: &mut bufp_b[..psize],
                },
            ];
            session.read_va_vectored(&mut reqs)?;
        }
        // Partial little-endian fills decode correctly: the unwritten high
        // bytes stay zero.
        let base = u64::from_le_bytes(base_b);
        let size = u64::from_le_bytes(size_b);
        let len = u16::from_le_bytes(len_b).min(MAX_NAME_BYTES) & !1;
        let buffer = u64::from_le_bytes(bufp_b);
        Ok(ModuleRef {
            name: read_name(session, buffer, len)?,
            base,
            size,
            entry_va,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_guest::{build_cloud_with_modules, GuestOs};
    use mc_hypervisor::{AddressWidth, Hypervisor};
    use mc_pe::corpus::ModuleBlueprint;
    use mc_vmi::VmiSession;

    fn cloud(width: AddressWidth, n: usize) -> (Hypervisor, Vec<GuestOs>) {
        let mut hv = Hypervisor::new();
        let bps = vec![
            ModuleBlueprint::new("alpha.sys", width, 8 * 1024),
            ModuleBlueprint::new("hal.dll", width, 16 * 1024),
            ModuleBlueprint::new("http.sys", width, 24 * 1024),
        ];
        let guests = build_cloud_with_modules(&mut hv, n, width, &bps).unwrap();
        (hv, guests)
    }

    #[test]
    fn list_modules_matches_ground_truth() {
        let (hv, guests) = cloud(AddressWidth::W32, 1);
        let mut s = VmiSession::attach(&hv, guests[0].vm).unwrap();
        let listed = ModuleSearcher::list_modules(&mut s).unwrap();
        let names: Vec<&str> = listed.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, vec!["alpha.sys", "hal.dll", "http.sys"]);
        for (found, truth) in listed.iter().zip(&guests[0].modules) {
            assert_eq!(found.base, truth.base);
            assert_eq!(found.size, truth.size as u64);
        }
    }

    #[test]
    fn find_is_case_insensitive() {
        let (hv, guests) = cloud(AddressWidth::W32, 1);
        let mut s = VmiSession::attach(&hv, guests[0].vm).unwrap();
        let m = ModuleSearcher::find(&mut s, "HAL.DLL").unwrap();
        assert_eq!(m.name, "hal.dll");
        assert_eq!(m.base, guests[0].find_module("hal.dll").unwrap().base);
    }

    #[test]
    fn capture_returns_full_image() {
        let (hv, guests) = cloud(AddressWidth::W32, 1);
        let truth = guests[0].find_module("http.sys").unwrap();
        let mut s = VmiSession::attach(&hv, guests[0].vm).unwrap();
        let img = ModuleSearcher::find(&mut s, "http.sys").unwrap();
        assert_eq!(img.bytes.len(), truth.size as usize);
        assert_eq!(img.base, truth.base);
        // Header magic is right at the start.
        assert_eq!(&img.bytes[..2], b"MZ");
        // The page-wise copy really walked pages.
        assert!(s.stats().pages_mapped as usize >= img.bytes.len() / PAGE_SIZE);
    }

    #[test]
    fn missing_module_is_typed_error() {
        let (hv, guests) = cloud(AddressWidth::W32, 1);
        let mut s = VmiSession::attach(&hv, guests[0].vm).unwrap();
        assert!(matches!(
            ModuleSearcher::find(&mut s, "rootkit.sys"),
            Err(CheckError::ModuleNotFound { .. })
        ));
    }

    #[test]
    fn works_on_64_bit_guests() {
        let (hv, guests) = cloud(AddressWidth::W64, 1);
        let mut s = VmiSession::attach(&hv, guests[0].vm).unwrap();
        let m = ModuleSearcher::find(&mut s, "hal.dll").unwrap();
        assert_eq!(m.base, guests[0].find_module("hal.dll").unwrap().base);
    }

    #[test]
    fn corrupt_list_detected_not_hung() {
        let (mut hv, guests) = cloud(AddressWidth::W32, 1);
        // Make the second entry's FLINK point back at the first entry,
        // forming a cycle that never returns to the head.
        let e0 = guests[0].modules[0].ldr_entry_va;
        let e1 = guests[0].modules[1].ldr_entry_va;
        hv.vm_mut(guests[0].vm).unwrap().write_ptr(e1, e0).unwrap();
        let mut s = VmiSession::attach(&hv, guests[0].vm).unwrap();
        assert!(matches!(
            ModuleSearcher::list_modules(&mut s),
            Err(CheckError::ListCorrupt { .. })
        ));
    }

    #[test]
    fn forged_huge_size_rejected() {
        let (mut hv, guests) = cloud(AddressWidth::W32, 1);
        let offs = LdrOffsets::for_width(AddressWidth::W32);
        let entry = guests[0].modules[0].ldr_entry_va;
        hv.vm_mut(guests[0].vm)
            .unwrap()
            .write_virt(entry + offs.size_of_image, &u32::MAX.to_le_bytes())
            .unwrap();
        let mut s = VmiSession::attach(&hv, guests[0].vm).unwrap();
        assert!(matches!(
            ModuleSearcher::find(&mut s, "alpha.sys"),
            Err(CheckError::ImplausibleSize { .. })
        ));
    }

    #[test]
    fn fast_capture_is_byte_identical_and_cheaper() {
        let (hv, guests) = cloud(AddressWidth::W32, 1);
        let mut legacy = VmiSession::attach(&hv, guests[0].vm).unwrap();
        let img_legacy = ModuleSearcher::find(&mut legacy, "http.sys").unwrap();
        let mut fast = VmiSession::attach(&hv, guests[0].vm)
            .unwrap()
            .with_fast_capture();
        let img_fast = ModuleSearcher::find(&mut fast, "http.sys").unwrap();
        assert_eq!(img_legacy.bytes, img_fast.bytes);
        assert_eq!(img_legacy.base, img_fast.base);
        let (lf, ff) = (legacy.stats(), fast.stats());
        assert!(
            ff.vectored_reads >= 1,
            "capture went through the batch path"
        );
        assert!(
            ff.page_walks < lf.page_walks,
            "fast walked {} pages, legacy {}",
            ff.page_walks,
            lf.page_walks
        );
        assert!(
            fast.elapsed() < legacy.elapsed(),
            "fast {} vs legacy {}",
            fast.elapsed(),
            legacy.elapsed()
        );
    }

    #[test]
    fn fast_list_walk_matches_legacy_on_both_widths() {
        for width in [AddressWidth::W32, AddressWidth::W64] {
            let (hv, guests) = cloud(width, 1);
            let mut legacy = VmiSession::attach(&hv, guests[0].vm).unwrap();
            let listed_legacy = ModuleSearcher::list_modules(&mut legacy).unwrap();
            let mut fast = VmiSession::attach(&hv, guests[0].vm)
                .unwrap()
                .with_fast_capture();
            let listed_fast = ModuleSearcher::list_modules(&mut fast).unwrap();
            assert_eq!(listed_legacy, listed_fast, "width {width:?}");
            assert!(
                fast.stats().page_walks < legacy.stats().page_walks,
                "width {width:?}: header parsing must stop walking per field"
            );
        }
    }

    #[test]
    fn a_forged_size_fails_find_ref_before_any_image_read() {
        let (mut hv, guests) = cloud(AddressWidth::W32, 2);
        let offs = LdrOffsets::for_width(AddressWidth::W32);
        let entry = guests[1].find_module("hal.dll").unwrap().ldr_entry_va;
        hv.vm_mut(guests[1].vm)
            .unwrap()
            .write_virt(entry + offs.size_of_image, &u32::MAX.to_le_bytes())
            .unwrap();
        let find = |vm| {
            let mut s = VmiSession::attach(&hv, vm).unwrap().with_fast_capture();
            let found = ModuleSearcher::find_ref(&mut s, "hal.dll");
            (found, s.stats().bytes_copied)
        };
        let (clean, walked) = find(guests[0].vm);
        assert!(clean.is_ok(), "{clean:?}");
        let (forged, copied) = find(guests[1].vm);
        assert!(
            matches!(forged, Err(CheckError::ImplausibleSize { size, .. }) if size == u64::from(u32::MAX)),
            "{forged:?}"
        );
        // Both walks read the same list entries; the forged one copies not
        // one image byte past them.
        assert_eq!(copied - walked, 0);
    }

    #[test]
    fn capture_into_arena_buffers_recycles_them() {
        let (hv, guests) = cloud(AddressWidth::W32, 1);
        let mut arena = crate::arena::CaptureArena::default();
        let mut s = VmiSession::attach(&hv, guests[0].vm)
            .unwrap()
            .with_fast_capture();
        let entry = ModuleSearcher::find_ref(&mut s, "hal.dll").unwrap();
        let bytes = arena.acquire(entry.size as usize);
        let img1 = ModuleSearcher::capture_into(&mut s, &entry, bytes).unwrap();
        assert_eq!(arena.stats().allocs, 1);
        let bytes1 = img1.bytes.clone();
        arena.release(img1.bytes);
        let bytes = arena.acquire(entry.size as usize);
        let img2 = ModuleSearcher::capture_into(&mut s, &entry, bytes).unwrap();
        assert_eq!(arena.stats().reuses, 1, "second capture reuses the buffer");
        assert_eq!(img2.bytes, bytes1);
    }

    #[test]
    fn refresh_pages_converges_to_a_fresh_capture() {
        let (mut hv, guests) = cloud(AddressWidth::W32, 1);
        let truth = guests[0].find_module("http.sys").unwrap().clone();
        let stale = {
            let mut s = VmiSession::attach(&hv, guests[0].vm)
                .unwrap()
                .with_fast_capture();
            ModuleSearcher::find(&mut s, "http.sys").unwrap()
        };
        // Dirty one mid-image page in the guest.
        hv.vm_mut(guests[0].vm)
            .unwrap()
            .write_virt(truth.base + (2 * PAGE_SIZE + 7) as u64, &[0x5A; 16])
            .unwrap();
        let mut s = VmiSession::attach(&hv, guests[0].vm)
            .unwrap()
            .with_fast_capture();
        let fresh = ModuleSearcher::find(&mut s, "http.sys").unwrap();
        assert_ne!(stale.bytes, fresh.bytes);
        // Refreshing only the dirty page brings the stale buffer up to date.
        let mut patched = stale.bytes.clone();
        ModuleSearcher::refresh_pages(&mut s, stale.base, &mut patched, &[2]).unwrap();
        assert_eq!(patched, fresh.bytes);
    }

    #[test]
    fn repeated_or_out_of_range_dirty_pages_are_typed_errors() {
        let (hv, guests) = cloud(AddressWidth::W32, 1);
        let mut s = VmiSession::attach(&hv, guests[0].vm)
            .unwrap()
            .with_fast_capture();
        let image = ModuleSearcher::find(&mut s, "http.sys").unwrap();
        let pages = image.bytes.len().div_ceil(PAGE_SIZE);
        let reads = s.stats().reads;
        let mut bytes = image.bytes.clone();
        for (dirty, page) in [(vec![1, 2, 1], 1), (vec![0, pages], pages)] {
            match ModuleSearcher::refresh_pages(&mut s, image.base, &mut bytes, &dirty) {
                Err(CheckError::BadPageList { page: p, pages: n }) => {
                    assert_eq!((p, n), (page, pages), "{dirty:?}");
                }
                other => panic!("{dirty:?}: want BadPageList, got {other:?}"),
            }
        }
        assert_eq!(s.stats().reads, reads, "a bad page list reads nothing");
        assert_eq!(bytes, image.bytes);
    }

    #[test]
    fn unmapped_image_page_is_typed_error() {
        let (mut hv, guests) = cloud(AddressWidth::W32, 1);
        let truth = guests[0].find_module("hal.dll").unwrap().clone();
        // Rip a page out of the middle of the module.
        {
            let vm = hv.vm_mut(guests[0].vm).unwrap();
            let aspace = vm.aspace;
            aspace
                .unmap(&mut vm.mem, truth.base + PAGE_SIZE as u64)
                .unwrap();
        }
        let mut s = VmiSession::attach(&hv, guests[0].vm).unwrap();
        assert!(matches!(
            ModuleSearcher::find(&mut s, "hal.dll"),
            Err(CheckError::Vmi(_))
        ));
    }
}
