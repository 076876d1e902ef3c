//! Simulated Xen-like hypervisor — the substrate under the ModChecker
//! reproduction.
//!
//! The paper's testbed is a Xen 4.1.2 host running 15 identical Windows XP
//! guests, introspected from the privileged Dom0. No Xen host exists in this
//! environment, so this crate simulates the slice of a hypervisor that
//! virtual machine introspection actually touches:
//!
//! * [`mem`] — guest-physical memory as discontiguous 4 KiB frames. VMI maps
//!   and copies guest memory *frame by frame*, which is why the paper's
//!   Module-Searcher dominates runtime; the frame granularity is load-bearing
//!   for the performance reproduction.
//! * [`paging`] — real x86 page-table formats (two-level non-PAE for 32-bit
//!   guests, four-level for 64-bit) built inside guest memory and walked for
//!   every virtual-address access, exactly like libVMI walks a guest's
//!   tables.
//! * [`vm`] — a guest VM: its memory, kernel address space, exported symbol
//!   table (the equivalent of libVMI's profile for `PsLoadedModuleList`),
//!   snapshot/restore, and its current CPU demand (for the loaded-host
//!   experiments).
//! * [`simtime`] — the calibrated cost model that converts introspection
//!   work (pages mapped, bytes copied/parsed/hashed/diffed) into simulated
//!   nanoseconds, including host CPU contention: when guest demand exceeds
//!   the host's virtual cores, privileged-VM work slows superlinearly
//!   (Figure 8's knee).
//! * [`Hypervisor`] — the host: creates VMs, clones them from a golden
//!   image (the paper's "15 VM clones from a single installation"), and
//!   exposes read-only access for introspection.
//!
//! The crate deliberately has no interior mutability: building guests and
//! infecting them takes `&mut Hypervisor`; scanning takes `&Hypervisor`, so
//! a parallel pool scan is data-race free by construction.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod error;
pub mod events;
pub mod fault;
pub mod mem;
pub mod paging;
pub mod replay;
pub mod simtime;
pub mod vm;

pub use error::HvError;
pub use events::{EventCursor, TrapModel, WatchPlan, WriteEvent};
pub use fault::{FaultDecision, FaultPlan, FaultState};
pub use mem::{GuestPhysMemory, PageGeneration, TrappedWrite, PAGE_SHIFT, PAGE_SIZE};
pub use paging::AddressSpace;
pub use replay::{AdversaryScript, Replay, RoundCtx};
pub use simtime::{ContentionModel, CostModel, SimDuration};
pub use vm::{Vm, VmId};

// The ISA pointer width is shared with the PE model; re-export it so
// downstream crates name one type.
pub use mc_pe::AddressWidth;

use std::collections::HashMap;

/// Host hardware configuration.
///
/// Defaults mirror the paper's testbed: a quad-core i7 with HyperThreading
/// (8 virtual cores) and 18 GB RAM.
#[derive(Clone, Debug)]
pub struct HostConfig {
    /// Number of virtual cores (hardware threads).
    pub virtual_cores: u32,
    /// Host RAM in bytes (only used for capacity accounting).
    pub ram_bytes: u64,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            virtual_cores: 8,
            ram_bytes: 18 * 1024 * 1024 * 1024,
        }
    }
}

/// The simulated host: all guest VMs plus the cost and contention models.
#[derive(Clone, Debug)]
pub struct Hypervisor {
    vms: Vec<Vm>,
    names: HashMap<String, VmId>,
    /// Introspection/processing cost model used for simulated-time figures.
    pub cost: CostModel,
    /// Host configuration (virtual cores feed the contention model).
    pub host: HostConfig,
    /// Seeded trap-delivery model for write-protection events (see
    /// [`events`]).
    pub trap: TrapModel,
}

impl Default for Hypervisor {
    fn default() -> Self {
        Self::new()
    }
}

impl Hypervisor {
    /// Creates an empty host with default (paper-testbed) configuration.
    pub fn new() -> Self {
        Hypervisor {
            vms: Vec::new(),
            names: HashMap::new(),
            cost: CostModel::default(),
            host: HostConfig::default(),
            trap: TrapModel::default(),
        }
    }

    /// Creates a host with explicit configuration.
    pub fn with_config(host: HostConfig, cost: CostModel) -> Self {
        Hypervisor {
            vms: Vec::new(),
            names: HashMap::new(),
            cost,
            host,
            trap: TrapModel::default(),
        }
    }

    /// Creates a fresh, empty guest VM and returns its id.
    pub fn create_vm(&mut self, name: &str, width: AddressWidth) -> Result<VmId, HvError> {
        if self.names.contains_key(name) {
            return Err(HvError::DuplicateVmName(name.to_string()));
        }
        let id = VmId(self.vms.len() as u32);
        self.vms.push(Vm::new(id, name, width));
        self.names.insert(name.to_string(), id);
        Ok(id)
    }

    /// Clones an existing VM — memory, page tables, symbols — under a new
    /// name. This is the paper's "instantiate N clones from a single
    /// installation" step.
    pub fn clone_vm(&mut self, src: VmId, name: &str) -> Result<VmId, HvError> {
        if self.names.contains_key(name) {
            return Err(HvError::DuplicateVmName(name.to_string()));
        }
        let id = VmId(self.vms.len() as u32);
        let mut vm = self.vm(src)?.clone();
        vm.id = id;
        vm.name = name.to_string();
        // Watches and the trap log are *subscriptions against the source
        // VM* — a clone is a fresh guest nobody has armed yet.
        vm.mem.clear_watch_state();
        self.vms.push(vm);
        self.names.insert(name.to_string(), id);
        Ok(id)
    }

    /// Renames a VM (cloud operators rename domains freely — e.g. into a
    /// quarantine namespace). The id is stable; only the name moves.
    pub fn rename_vm(&mut self, id: VmId, new_name: &str) -> Result<(), HvError> {
        if self.names.contains_key(new_name) {
            return Err(HvError::DuplicateVmName(new_name.to_string()));
        }
        let vm = self
            .vms
            .get_mut(id.0 as usize)
            .ok_or(HvError::UnknownVm(id))?;
        self.names.remove(&vm.name);
        vm.name = new_name.to_string();
        self.names.insert(new_name.to_string(), id);
        Ok(())
    }

    /// Applies a [`WatchPlan`] built by an introspection session to the VM
    /// it targets; returns the number of frames armed.
    pub fn apply_watch_plan(&mut self, plan: &WatchPlan) -> Result<usize, HvError> {
        self.vm_mut(plan.vm)?.apply_watch_plan(plan)
    }

    /// Immutable access to a VM.
    pub fn vm(&self, id: VmId) -> Result<&Vm, HvError> {
        self.vms.get(id.0 as usize).ok_or(HvError::UnknownVm(id))
    }

    /// Mutable access to a VM (guest construction and attacks only).
    pub fn vm_mut(&mut self, id: VmId) -> Result<&mut Vm, HvError> {
        self.vms
            .get_mut(id.0 as usize)
            .ok_or(HvError::UnknownVm(id))
    }

    /// Looks a VM up by name.
    pub fn vm_by_name(&self, name: &str) -> Option<&Vm> {
        self.names.get(name).map(|id| &self.vms[id.0 as usize])
    }

    /// All VM ids, in creation order.
    pub fn vm_ids(&self) -> impl Iterator<Item = VmId> + '_ {
        self.vms.iter().map(|vm| vm.id)
    }

    /// Number of VMs on the host.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Total guest CPU demand in cores (the privileged VM adds its own
    /// demand separately when introspecting).
    pub fn total_guest_demand(&self) -> f64 {
        self.vms.iter().map(|vm| vm.cpu_demand).sum()
    }

    /// The contention slowdown factor currently applied to privileged-VM
    /// (ModChecker) work. See [`ContentionModel::slowdown`].
    pub fn dom0_slowdown(&self) -> f64 {
        ContentionModel::new(self.host.virtual_cores).slowdown(self.total_guest_demand())
    }

    /// Attaches a fault plan to one VM (subsequent introspection sessions
    /// observe it). Pass `None` to clear.
    pub fn set_fault_plan(&mut self, id: VmId, plan: Option<FaultPlan>) -> Result<(), HvError> {
        self.vm_mut(id)?.fault_plan = plan;
        Ok(())
    }

    /// Attaches the same fault plan to every VM on the host — the one-line
    /// chaos switch used by the CLI's `--fault-seed` and the chaos suite.
    /// Per-VM fault streams still differ (the state mixes the VM id into
    /// the seed).
    pub fn inject_fault_plan(&mut self, plan: FaultPlan) {
        for vm in &mut self.vms {
            vm.fault_plan = Some(plan);
        }
    }

    /// Registers the host's point-in-time state as gauges: VM count, guest
    /// CPU demand, the Dom0 contention slowdown, and aggregate guest-memory
    /// figures (frames, allocated bytes, write-generation high-water mark).
    #[allow(clippy::cast_precision_loss)]
    pub fn record_metrics(&self, reg: &mut mc_obs::MetricsRegistry) {
        reg.gauge_set("hv_vm_count", self.vm_count() as f64);
        reg.gauge_set("hv_guest_demand_cores", self.total_guest_demand());
        reg.gauge_set("hv_dom0_slowdown", self.dom0_slowdown());
        let (frames, bytes, generations) =
            self.vms.iter().fold((0u64, 0u64, 0u64), |(f, b, g), vm| {
                (
                    f + vm.mem.frame_count() as u64,
                    b + vm.mem.allocated_bytes() as u64,
                    g + vm.mem.write_counter(),
                )
            });
        reg.gauge_set("hv_guest_frames", frames as f64);
        reg.gauge_set("hv_guest_allocated_bytes", bytes as f64);
        reg.gauge_set("hv_frame_generations", generations as f64);
        let (watched, trapped) = self.vms.iter().fold((0u64, 0u64), |(w, t), vm| {
            (
                w + vm.mem.watched_frames(),
                t + vm.mem.trap_log().len() as u64,
            )
        });
        reg.gauge_set("trap_watched_frames", watched as f64);
        reg.gauge_set("trap_writes_total", trapped as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_lookup_vms() {
        let mut hv = Hypervisor::new();
        let a = hv.create_vm("dom1", AddressWidth::W32).unwrap();
        let b = hv.create_vm("dom2", AddressWidth::W32).unwrap();
        assert_ne!(a, b);
        assert_eq!(hv.vm(a).unwrap().name, "dom1");
        assert_eq!(hv.vm_by_name("dom2").unwrap().id, b);
        assert!(hv.vm_by_name("dom3").is_none());
        assert_eq!(hv.vm_count(), 2);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut hv = Hypervisor::new();
        hv.create_vm("dom1", AddressWidth::W32).unwrap();
        assert!(matches!(
            hv.create_vm("dom1", AddressWidth::W32),
            Err(HvError::DuplicateVmName(_))
        ));
    }

    #[test]
    fn clone_copies_memory() {
        let mut hv = Hypervisor::new();
        let a = hv.create_vm("golden", AddressWidth::W32).unwrap();
        {
            let vm = hv.vm_mut(a).unwrap();
            let va = 0x8000_0000u64;
            vm.map_range(va, PAGE_SIZE as u64).unwrap();
            vm.write_virt(va, b"golden bytes").unwrap();
        }
        let b = hv.clone_vm(a, "clone1").unwrap();
        // Mutating the clone must not affect the golden image.
        hv.vm_mut(b)
            .unwrap()
            .write_virt(0x8000_0000, b"CLONED")
            .unwrap();
        let mut buf = [0u8; 6];
        hv.vm(a).unwrap().read_virt(0x8000_0000, &mut buf).unwrap();
        assert_eq!(&buf, b"golden");
        hv.vm(b).unwrap().read_virt(0x8000_0000, &mut buf).unwrap();
        assert_eq!(&buf, b"CLONED");
    }

    #[test]
    fn unknown_vm_is_error() {
        let hv = Hypervisor::new();
        assert!(matches!(hv.vm(VmId(9)), Err(HvError::UnknownVm(_))));
    }

    #[test]
    fn dom0_slowdown_grows_with_demand() {
        let mut hv = Hypervisor::new();
        let idle = hv.dom0_slowdown();
        assert!(idle < 1.1, "idle slowdown {idle} should be near 1");
        for i in 0..12 {
            let id = hv.create_vm(&format!("dom{i}"), AddressWidth::W32).unwrap();
            hv.vm_mut(id).unwrap().cpu_demand = 1.0;
        }
        assert!(hv.dom0_slowdown() > 1.0);
    }
}
