//! A guest virtual machine.
//!
//! A [`Vm`] owns its guest-physical memory and one kernel address space,
//! carries the symbol table an introspector needs (the equivalent of a
//! libVMI profile: `PsLoadedModuleList`'s virtual address, the guest width),
//! and supports named snapshots — the paper's remediation story is "revert
//! the flagged VM to a clean snapshot".

use std::collections::HashMap;

use crate::error::HvError;
use crate::events::WatchPlan;
use crate::mem::{GuestPhysMemory, PageGeneration, PAGE_SHIFT, PAGE_SIZE};
use crate::paging::AddressSpace;
use mc_pe::AddressWidth;

/// Identifier of a VM on its host (dense, creation-ordered).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VmId(pub u32);

/// A point-in-time copy of a VM's state.
#[derive(Clone, Debug)]
struct Snapshot {
    mem: GuestPhysMemory,
    aspace: AddressSpace,
    symbols: HashMap<String, u64>,
}

/// One guest VM.
#[derive(Clone, Debug)]
pub struct Vm {
    /// This VM's id on its host.
    pub id: VmId,
    /// Human-readable domain name (e.g. `dom1`).
    pub name: String,
    /// Guest-physical memory.
    pub mem: GuestPhysMemory,
    /// The kernel address space (CR3 + width).
    pub aspace: AddressSpace,
    /// Exported kernel symbols: name → guest VA. Populated by the guest
    /// builder; read by VMI (as libVMI reads its profile/System.map).
    pub symbols: HashMap<String, u64>,
    /// Current CPU demand in cores (0 = fully idle; ≥1 = a HeavyLoad-style
    /// stressor). Feeds the host contention model.
    pub cpu_demand: f64,
    /// True while the VM is paused (introspectors may pause to get a
    /// consistent view; reads work either way).
    pub paused: bool,
    /// Optional fault model for chaos testing: when set, introspection
    /// sessions against this VM observe the planned faults (see
    /// [`crate::fault`]). `None` — the default — reproduces the original
    /// always-succeeds simulator.
    pub fault_plan: Option<crate::fault::FaultPlan>,
    snapshots: HashMap<String, Snapshot>,
}

impl Vm {
    /// Creates an empty VM with a fresh address space.
    pub fn new(id: VmId, name: &str, width: AddressWidth) -> Self {
        let mut mem = GuestPhysMemory::new();
        let aspace = AddressSpace::new(&mut mem, width);
        Vm {
            id,
            name: name.to_string(),
            mem,
            aspace,
            symbols: HashMap::new(),
            cpu_demand: 0.0,
            paused: false,
            fault_plan: None,
            snapshots: HashMap::new(),
        }
    }

    /// Guest pointer width.
    pub fn width(&self) -> AddressWidth {
        self.aspace.width()
    }

    /// Maps `len` bytes of fresh memory at page-aligned `va`.
    pub fn map_range(&mut self, va: u64, len: u64) -> Result<(), HvError> {
        self.aspace.map_range_alloc(&mut self.mem, va, len)
    }

    /// Walks the page tables once: guest-virtual `va` → guest-physical
    /// address. Introspectors use this to build per-session translate
    /// caches (a [`Vm`] borrowed immutably cannot remap under them).
    pub fn translate(&self, va: u64) -> Result<u64, HvError> {
        self.aspace.translate(&self.mem, va)
    }

    /// Reads guest-virtual memory into `buf`, walking the page tables for
    /// every page crossed. Fails on any unmapped page.
    pub fn read_virt(&self, va: u64, buf: &mut [u8]) -> Result<(), HvError> {
        let mut at = va;
        let mut done = 0usize;
        while done < buf.len() {
            let pa = self.aspace.translate(&self.mem, at)?;
            let in_page = PAGE_SIZE - (at as usize & (PAGE_SIZE - 1));
            let take = in_page.min(buf.len() - done);
            self.mem.read_phys(pa, &mut buf[done..done + take])?;
            done += take;
            at += take as u64;
        }
        Ok(())
    }

    /// Writes guest-virtual memory (guest-internal operations and in-memory
    /// attacks).
    ///
    /// The write is all-or-nothing: every page's translation is validated
    /// *before* the first byte lands, so a range that crosses an unmapped
    /// page fails without mutating memory, bumping generation stamps, or
    /// firing write-protection traps for the pages before the hole.
    pub fn write_virt(&mut self, va: u64, data: &[u8]) -> Result<(), HvError> {
        let mut segments: Vec<(u64, usize, usize)> = Vec::new();
        let mut at = va;
        let mut done = 0usize;
        while done < data.len() {
            let pa = self.aspace.translate(&self.mem, at)?;
            let in_page = PAGE_SIZE - (at as usize & (PAGE_SIZE - 1));
            let take = in_page.min(data.len() - done);
            segments.push((pa, done, take));
            done += take;
            at += take as u64;
        }
        for (pa, start, take) in segments {
            self.mem.write_phys(pa, &data[start..start + take])?;
        }
        Ok(())
    }

    /// Reads a guest-virtual pointer-sized value (4 or 8 bytes by width).
    pub fn read_ptr(&self, va: u64) -> Result<u64, HvError> {
        match self.width() {
            AddressWidth::W32 => {
                let mut b = [0u8; 4];
                self.read_virt(va, &mut b)?;
                Ok(u32::from_le_bytes(b) as u64)
            }
            AddressWidth::W64 => {
                let mut b = [0u8; 8];
                self.read_virt(va, &mut b)?;
                Ok(u64::from_le_bytes(b))
            }
        }
    }

    /// Writes a guest-virtual pointer-sized value.
    pub fn write_ptr(&mut self, va: u64, value: u64) -> Result<(), HvError> {
        match self.width() {
            AddressWidth::W32 => self.write_virt(va, &(value as u32).to_le_bytes()),
            AddressWidth::W64 => self.write_virt(va, &value.to_le_bytes()),
        }
    }

    /// Number of pages a read of `len` bytes at `va` crosses (for cost
    /// accounting and watch-range registration).
    ///
    /// `va + len - 1` is computed with saturating arithmetic: a range whose
    /// end would wrap past `u64::MAX` is clamped to the last addressable
    /// page instead of overflowing (which used to wrap `last` below `first`
    /// and underflow the subtraction in release builds).
    pub fn pages_crossed(va: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let first = va >> PAGE_SHIFT;
        let last = va.saturating_add(len - 1) >> PAGE_SHIFT;
        last - first + 1
    }

    /// Frame numbers a `len`-byte range at `va` resolves to, in address
    /// order. Every page's translation is validated before any frame is
    /// returned, so callers can treat the result as all-or-nothing.
    pub fn resolve_frames(&self, va: u64, len: u64) -> Result<Vec<u64>, HvError> {
        let pages = Self::pages_crossed(va, len);
        let first_page_va = va & !(PAGE_SIZE as u64 - 1);
        // `len` may come from guest memory: grow with the pages that
        // actually translate instead of preallocating for the claim.
        let mut frames = Vec::new();
        for i in 0..pages {
            let pva = first_page_va.saturating_add(i << PAGE_SHIFT);
            frames.push(self.aspace.translate(&self.mem, pva)? >> PAGE_SHIFT);
        }
        Ok(frames)
    }

    /// Arms write-protection watches on every frame a `len`-byte range at
    /// `va` crosses; returns the number of frames armed. All translations
    /// are validated first, so a range crossing an unmapped page arms
    /// nothing. Watches are reference-counted per frame.
    pub fn watch_range(&mut self, va: u64, len: u64) -> Result<usize, HvError> {
        let frames = self.resolve_frames(va, len)?;
        for &f in &frames {
            self.mem.watch_frame(f)?;
        }
        Ok(frames.len())
    }

    /// Releases one watch reference on every frame the range crosses.
    pub fn unwatch_range(&mut self, va: u64, len: u64) -> Result<usize, HvError> {
        let frames = self.resolve_frames(va, len)?;
        for &f in &frames {
            self.mem.unwatch_frame(f)?;
        }
        Ok(frames.len())
    }

    /// Applies a [`WatchPlan`] built by an introspection session (which
    /// borrows the VM immutably and so can only *plan* watches, not arm
    /// them). Fails if the plan targets a different VM.
    pub fn apply_watch_plan(&mut self, plan: &WatchPlan) -> Result<usize, HvError> {
        if plan.vm != self.id {
            return Err(HvError::UnknownVm(plan.vm));
        }
        for &f in &plan.frames {
            self.mem.watch_frame(f)?;
        }
        Ok(plan.frames.len())
    }

    /// Takes (or replaces) a named snapshot of memory + mappings + symbols.
    pub fn snapshot(&mut self, name: &str) {
        self.snapshots.insert(
            name.to_string(),
            Snapshot {
                mem: self.mem.clone(),
                aspace: self.aspace,
                symbols: self.symbols.clone(),
            },
        );
    }

    /// Reverts to a named snapshot (the paper's clean-state remediation).
    ///
    /// The per-frame write-generation stamps revert with the memory (they
    /// describe its content), but the global write counter stays monotonic
    /// — post-revert writes must never re-issue a counter value a cached
    /// [`PageGeneration`] may still hold. Watches and the trap log belong
    /// to the introspection plane, not to guest content, so they survive
    /// the restore unchanged: a revert must not silently disarm a
    /// monitor's traps. The restore itself fires no trap events — it is a
    /// hypervisor-side frame remap, not a guest write; subscribers learn
    /// of it through cache eviction at the remediation layer.
    pub fn revert(&mut self, name: &str) -> Result<(), HvError> {
        let snap = self
            .snapshots
            .get(name)
            .ok_or_else(|| HvError::SnapshotMissing(name.to_string()))?;
        let counter_floor = self.mem.write_counter();
        let watches = self.mem.take_watch_state();
        self.mem = snap.mem.clone();
        self.mem.keep_counter_at_least(counter_floor);
        self.mem.restore_watch_state(watches);
        self.aspace = snap.aspace;
        self.symbols = snap.symbols.clone();
        Ok(())
    }

    /// The write-generation of the page backing guest-virtual `va`: which
    /// frame it resolves to and the stamp of the last write that touched
    /// that frame. Metadata-only — no guest bytes are copied.
    pub fn page_generation(&self, va: u64) -> Result<PageGeneration, HvError> {
        let pa = self.aspace.translate(&self.mem, va)?;
        self.mem.page_generation(pa)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm32() -> Vm {
        Vm::new(VmId(0), "t", AddressWidth::W32)
    }

    #[test]
    fn virt_rw_spanning_pages() {
        let mut vm = vm32();
        let va = 0x8000_0000u64;
        vm.map_range(va, 3 * PAGE_SIZE as u64).unwrap();
        let data: Vec<u8> = (0..(2 * PAGE_SIZE + 100))
            .map(|i| (i % 251) as u8)
            .collect();
        vm.write_virt(va + 50, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        vm.read_virt(va + 50, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn read_unmapped_fails() {
        let vm = vm32();
        let mut buf = [0u8; 4];
        assert!(matches!(
            vm.read_virt(0x8000_0000, &mut buf),
            Err(HvError::UnmappedVa(_))
        ));
    }

    #[test]
    fn read_partially_unmapped_fails() {
        let mut vm = vm32();
        let va = 0x8000_0000u64;
        vm.map_range(va, PAGE_SIZE as u64).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE + 1];
        assert!(vm.read_virt(va, &mut buf).is_err());
    }

    #[test]
    fn ptr_round_trip_both_widths() {
        let mut vm = vm32();
        vm.map_range(0x8000_0000, PAGE_SIZE as u64).unwrap();
        vm.write_ptr(0x8000_0010, 0xDEAD_BEEF).unwrap();
        assert_eq!(vm.read_ptr(0x8000_0010).unwrap(), 0xDEAD_BEEF);

        let mut vm64 = Vm::new(VmId(1), "t64", AddressWidth::W64);
        vm64.map_range(0xFFFF_F800_0000_0000, PAGE_SIZE as u64)
            .unwrap();
        vm64.write_ptr(0xFFFF_F800_0000_0008, 0xFFFF_F800_1234_5678)
            .unwrap();
        assert_eq!(
            vm64.read_ptr(0xFFFF_F800_0000_0008).unwrap(),
            0xFFFF_F800_1234_5678
        );
    }

    #[test]
    fn pages_crossed_counts() {
        assert_eq!(Vm::pages_crossed(0, 0), 0);
        assert_eq!(Vm::pages_crossed(0, 1), 1);
        assert_eq!(Vm::pages_crossed(0, PAGE_SIZE as u64), 1);
        assert_eq!(Vm::pages_crossed(0, PAGE_SIZE as u64 + 1), 2);
        assert_eq!(Vm::pages_crossed(PAGE_SIZE as u64 - 1, 2), 2);
    }

    #[test]
    fn pages_crossed_does_not_wrap_near_u64_max() {
        let last_page = u64::MAX >> PAGE_SHIFT;
        // End exactly at u64::MAX: one page.
        assert_eq!(Vm::pages_crossed(u64::MAX, 1), 1);
        // Range whose end would overflow u64: clamped to the last page
        // instead of wrapping `last` below `first` (which underflowed).
        assert_eq!(Vm::pages_crossed(u64::MAX - 1, 100), 1);
        assert_eq!(
            Vm::pages_crossed((last_page - 1) << PAGE_SHIFT, u64::MAX),
            2
        );
        // A huge range from 0 still counts normally.
        assert_eq!(Vm::pages_crossed(0, u64::MAX), last_page + 1);
    }

    #[test]
    fn failed_write_virt_mutates_nothing() {
        let mut vm = vm32();
        let va = 0x8000_0000u64;
        // Two mapped pages, then a hole.
        vm.map_range(va, 2 * PAGE_SIZE as u64).unwrap();
        vm.write_virt(va, b"original").unwrap();
        let counter = vm.mem.write_counter();
        let gen = vm.page_generation(va).unwrap();

        // A write spanning into the unmapped third page must fail without
        // touching the first two pages, bumping stamps, or firing traps.
        vm.watch_range(va, 2 * PAGE_SIZE as u64).unwrap();
        let data = vec![0xCC; 3 * PAGE_SIZE];
        assert!(matches!(
            vm.write_virt(va, &data),
            Err(HvError::UnmappedVa(_))
        ));
        let mut buf = [0u8; 8];
        vm.read_virt(va, &mut buf).unwrap();
        assert_eq!(&buf, b"original", "no torn partial write");
        assert_eq!(vm.mem.write_counter(), counter, "no stamp bump");
        assert_eq!(vm.page_generation(va).unwrap(), gen);
        assert!(vm.mem.trap_log().is_empty(), "no spurious write events");
    }

    #[test]
    fn revert_keeps_the_write_counter_monotonic() {
        let mut vm = vm32();
        let va = 0x8000_0000u64;
        vm.map_range(va, PAGE_SIZE as u64).unwrap();
        vm.write_virt(va, b"clean").unwrap();
        vm.snapshot("clean");
        let g_clean = vm.page_generation(va).unwrap();

        vm.write_virt(va, b"DIRTY").unwrap();
        let g_dirty = vm.page_generation(va).unwrap();
        assert_ne!(g_clean, g_dirty, "a write must move the generation");
        let counter_before_revert = vm.mem.write_counter();

        vm.revert("clean").unwrap();
        // Stamps revert with memory (same content ⇒ same generation)...
        assert_eq!(vm.page_generation(va).unwrap(), g_clean);
        // ...but the counter never goes back, so the next write cannot
        // collide with a stamp cached while the VM was dirty.
        assert!(vm.mem.write_counter() >= counter_before_revert);
        vm.write_virt(va, b"again").unwrap();
        let g_again = vm.page_generation(va).unwrap();
        assert_ne!(g_again, g_dirty);
        assert_ne!(g_again, g_clean);
    }

    #[test]
    fn page_generation_is_metadata_only() {
        let mut vm = vm32();
        let va = 0x8000_0000u64;
        vm.map_range(va, 2 * PAGE_SIZE as u64).unwrap();
        vm.write_virt(va + PAGE_SIZE as u64, b"second page")
            .unwrap();
        let g0 = vm.page_generation(va).unwrap();
        let g1 = vm.page_generation(va + PAGE_SIZE as u64).unwrap();
        assert_ne!(g0.frame, g1.frame);
        assert_eq!(g0.stamp, 0, "first page never written");
        assert!(g1.stamp > 0);
        assert!(vm.page_generation(0xDEAD_0000).is_err(), "unmapped VA");
    }

    #[test]
    fn snapshot_and_revert() {
        let mut vm = vm32();
        let va = 0x8000_0000u64;
        vm.map_range(va, PAGE_SIZE as u64).unwrap();
        vm.write_virt(va, b"clean").unwrap();
        vm.symbols.insert("PsLoadedModuleList".into(), va);
        vm.snapshot("clean");

        vm.write_virt(va, b"DIRTY").unwrap();
        vm.symbols.clear();
        vm.revert("clean").unwrap();

        let mut buf = [0u8; 5];
        vm.read_virt(va, &mut buf).unwrap();
        assert_eq!(&buf, b"clean");
        assert_eq!(vm.symbols["PsLoadedModuleList"], va);
        assert!(matches!(
            vm.revert("missing"),
            Err(HvError::SnapshotMissing(_))
        ));
    }
}
