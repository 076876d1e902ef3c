//! The event plane: a write-trap subscriber that turns the pull probe
//! into push monitoring.
//!
//! [`EventPlane`] owns the subscription state the push pipeline needs:
//! which `(vm, module)` pairs have watches armed over their page spans, a
//! reverse frame → module index for coalescing, a drain cursor into the
//! host's trap logs, and the set of pairs dirtied by events not yet
//! rescanned. [`crate::monitor::ContinuousMonitor`],
//! [`crate::sched::FleetScheduler`] and [`crate::serve::AttestServer`] all
//! drive the same plane: drain, coalesce to dirty pairs, scan with the
//! *clean* pairs trusted (served from cache with zero guest reads — see
//! [`crate::ModChecker::check_pool_with_cache_trusted`]), then mark the
//! rescanned pairs clean again.
//!
//! Trust is deliberately narrower than "no events": a pair is only
//! short-circuited when it *also* has a live cache entry. Mutations that
//! bypass the trap path — snapshot revert above all — go through cache
//! eviction, so an evicted pair is rescanned regardless of what the event
//! plane believes. That closure is what makes push verdicts byte-identical
//! to poll verdicts.

use std::collections::{BTreeSet, HashMap, HashSet};

use mc_hypervisor::{EventCursor, Hypervisor, VmId, WriteEvent};
use mc_vmi::VmiSession;

use crate::error::CheckError;
use crate::searcher::ModuleSearcher;

/// Cumulative counters for one [`EventPlane`] (exported as `event_*`
/// metrics by the monitor/server that owns the plane).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventPlaneStats {
    /// Write events drained from the host, lifetime total.
    pub events_drained: u64,
    /// `(vm, module)` pairs marked dirty by events, lifetime total
    /// (an already-dirty pair re-fired counts once per marking).
    pub dirty_marks: u64,
    /// Events whose frame matched no armed pair (stale watches after a
    /// disarm race; counted, never silently dropped).
    pub unattributed_events: u64,
    /// Pairs armed over the plane's lifetime.
    pub pairs_armed: u64,
    /// Frames currently watched by this plane.
    pub frames_watched: u64,
}

/// Write-trap subscription state for a set of `(vm, module)` pairs.
#[derive(Clone, Debug, Default)]
pub struct EventPlane {
    /// Armed pairs → the frames their span watches.
    armed: HashMap<(VmId, String), Vec<u64>>,
    /// Reverse index: fired frame → module names armed over it.
    index: HashMap<(VmId, u64), Vec<String>>,
    /// This subscriber's drain position in every VM's trap log.
    cursor: EventCursor,
    /// Pairs dirtied by drained events, awaiting rescan. A `BTreeSet` so
    /// iteration (and therefore any derived work order) is deterministic.
    dirty: BTreeSet<(VmId, String)>,
    stats: EventPlaneStats,
}

impl EventPlane {
    /// An empty plane: nothing armed, cursor at the log heads.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms watches over `module`'s page span on one VM: plans the watch
    /// under an introspection session (riding the fast-capture translate
    /// cache when `fast_capture` is set), applies it under `&mut`, and
    /// records the pair. Re-arming an existing pair first releases its old
    /// frames (the module may have moved). Returns the frames watched.
    pub fn arm_pair(
        &mut self,
        hv: &mut Hypervisor,
        vm: VmId,
        module: &str,
        fast_capture: bool,
    ) -> Result<usize, CheckError> {
        let plan = {
            let mut session = VmiSession::attach(hv, vm)?;
            if fast_capture {
                session = session.with_fast_capture();
            }
            let entry = ModuleSearcher::find_ref(&mut session, module)?;
            ModuleSearcher::check_size(&session, &entry)?;
            session.arm_watches(entry.base, entry.size)?
        };
        self.disarm_pair(hv, vm, module)?;
        hv.apply_watch_plan(&plan).map_err(mc_vmi::VmiError::from)?;
        for &f in &plan.frames {
            self.index
                .entry((vm, f))
                .or_default()
                .push(module.to_string());
        }
        self.stats.pairs_armed += 1;
        self.stats.frames_watched += plan.frames.len() as u64;
        let n = plan.frames.len();
        self.armed.insert((vm, module.to_string()), plan.frames);
        Ok(n)
    }

    /// Releases an armed pair's watches (no-op if not armed).
    pub fn disarm_pair(
        &mut self,
        hv: &mut Hypervisor,
        vm: VmId,
        module: &str,
    ) -> Result<(), CheckError> {
        let Some(frames) = self.armed.remove(&(vm, module.to_string())) else {
            return Ok(());
        };
        self.stats.frames_watched = self
            .stats
            .frames_watched
            .saturating_sub(frames.len() as u64);
        for f in frames {
            if let Ok(vm_ref) = hv.vm_mut(vm) {
                let _ = vm_ref.mem.unwatch_frame(f);
            }
            if let Some(mods) = self.index.get_mut(&(vm, f)) {
                mods.retain(|m| m != module);
                if mods.is_empty() {
                    self.index.remove(&(vm, f));
                }
            }
        }
        self.dirty.remove(&(vm, module.to_string()));
        Ok(())
    }

    /// Arms every `(vm, module)` combination; returns the total frames
    /// watched. A pair that cannot be armed — its VM is lost or faulted
    /// out, or its guest serves a module list entry the searcher rejects
    /// (a missing module, a forged `SizeOfImage`) — stays unarmed and
    /// arming goes on with the next pair: an unarmed pair is never
    /// trusted, so it scans through the normal poll path, which is where
    /// its failure becomes that VM's verdict. One hostile guest therefore
    /// cannot switch push mode off for the rest of the fleet. Never
    /// returns `Err` today.
    pub fn arm_modules(
        &mut self,
        hv: &mut Hypervisor,
        vms: &[VmId],
        modules: &[String],
    ) -> Result<usize, CheckError> {
        let mut frames = 0usize;
        for &vm in vms {
            for module in modules {
                match self.arm_pair(hv, vm, module, true) {
                    Ok(n) => frames += n,
                    // A re-arm that fails must not leave the pair trusted
                    // on its old watches.
                    Err(_) => self.disarm_pair(hv, vm, module)?,
                }
            }
        }
        Ok(frames)
    }

    /// Drains every undelivered write event, coalescing them onto dirty
    /// `(vm, module)` pairs via the frame index. Returns the drained
    /// events (sorted by seeded delivery latency — see
    /// [`mc_hypervisor::TrapModel`]) so callers can observe latency
    /// distributions.
    pub fn drain(&mut self, hv: &Hypervisor) -> Vec<WriteEvent> {
        let events = hv.drain_write_events(&mut self.cursor);
        for e in &events {
            match self.index.get(&(e.vm, e.frame)) {
                Some(mods) => {
                    for m in mods {
                        if self.dirty.insert((e.vm, m.clone())) {
                            self.stats.dirty_marks += 1;
                        }
                    }
                }
                None => self.stats.unattributed_events += 1,
            }
        }
        self.stats.events_drained += events.len() as u64;
        events
    }

    /// The VMs whose `(vm, module)` pair is armed and event-free — safe to
    /// serve from cache without touching the guest.
    pub fn trusted_for(&self, module: &str, vms: &[VmId]) -> HashSet<VmId> {
        vms.iter()
            .copied()
            .filter(|&vm| {
                let key = (vm, module.to_string());
                self.armed.contains_key(&key) && !self.dirty.contains(&key)
            })
            .collect()
    }

    /// True when `vm` has at least one armed pair and no dirty pair — its
    /// module list provably did not change through the watched spans.
    pub fn vm_quiet(&self, vm: VmId) -> bool {
        let mut any = false;
        for (v, _) in self.armed.keys() {
            if *v == vm {
                any = true;
            }
        }
        any && !self.dirty.iter().any(|(v, _)| *v == vm)
    }

    /// Dirty pairs awaiting rescan, in deterministic order.
    pub fn dirty_pairs(&self) -> impl Iterator<Item = &(VmId, String)> {
        self.dirty.iter()
    }

    /// Number of dirty pairs awaiting rescan.
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Number of armed pairs.
    pub fn armed_len(&self) -> usize {
        self.armed.len()
    }

    /// Marks every dirty pair clean again — call after a round that
    /// rescanned all of them (dirty pairs are never trusted, so any scan
    /// over the pair set refreshes exactly these).
    pub fn clear_dirty(&mut self) {
        self.dirty.clear();
    }

    /// Cumulative counters.
    pub fn stats(&self) -> EventPlaneStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_guest::build_cloud_with_modules;
    use mc_hypervisor::AddressWidth;
    use mc_pe::corpus::ModuleBlueprint;

    fn cloud(n: usize) -> (Hypervisor, Vec<mc_guest::GuestOs>, Vec<VmId>) {
        let mut hv = Hypervisor::new();
        let bps = vec![
            ModuleBlueprint::new("hal.dll", AddressWidth::W32, 8 * 1024),
            ModuleBlueprint::new("ndis.sys", AddressWidth::W32, 8 * 1024),
        ];
        let guests = build_cloud_with_modules(&mut hv, n, AddressWidth::W32, &bps).unwrap();
        let ids = guests.iter().map(|g| g.vm).collect();
        (hv, guests, ids)
    }

    #[test]
    fn arm_drain_coalesce_retire() {
        let (mut hv, guests, ids) = cloud(3);
        let mut plane = EventPlane::new();
        let modules = vec!["hal.dll".to_string(), "ndis.sys".to_string()];
        let frames = plane.arm_modules(&mut hv, &ids, &modules).unwrap();
        assert!(frames > 0);
        assert_eq!(plane.armed_len(), 6);
        assert!(plane.drain(&hv).is_empty(), "clean cloud: no events");
        assert_eq!(plane.trusted_for("hal.dll", &ids).len(), 3);
        assert!(plane.vm_quiet(ids[1]));

        // Infect one VM's hal.dll → events coalesce to exactly that pair.
        guests[1]
            .patch_module(&mut hv, "hal.dll", 0x40, &[0xCC])
            .unwrap();
        let evs = plane.drain(&hv);
        assert!(!evs.is_empty());
        assert_eq!(plane.dirty_len(), 1);
        assert_eq!(
            plane.dirty_pairs().next().unwrap(),
            &(ids[1], "hal.dll".to_string())
        );
        let trusted = plane.trusted_for("hal.dll", &ids);
        assert!(!trusted.contains(&ids[1]));
        assert_eq!(trusted.len(), 2);
        assert_eq!(plane.trusted_for("ndis.sys", &ids).len(), 3);
        assert!(!plane.vm_quiet(ids[1]));
        assert!(plane.vm_quiet(ids[0]));

        // After the rescan, the pair is clean again.
        plane.clear_dirty();
        assert_eq!(plane.trusted_for("hal.dll", &ids).len(), 3);
        let s = plane.stats();
        assert!(s.events_drained > 0);
        assert_eq!(s.dirty_marks, 1);
        assert_eq!(s.unattributed_events, 0);
    }

    #[test]
    fn disarm_releases_frames_and_unknown_module_fails() {
        let (mut hv, _guests, ids) = cloud(2);
        let mut plane = EventPlane::new();
        plane.arm_pair(&mut hv, ids[0], "hal.dll", true).unwrap();
        let watched = hv.vm(ids[0]).unwrap().mem.watched_frames();
        assert!(watched > 0);
        plane.disarm_pair(&mut hv, ids[0], "hal.dll").unwrap();
        assert_eq!(hv.vm(ids[0]).unwrap().mem.watched_frames(), 0);
        assert_eq!(plane.armed_len(), 0);
        assert!(plane
            .arm_pair(&mut hv, ids[0], "no-such.sys", true)
            .is_err());
    }

    #[test]
    fn rearming_does_not_leak_watch_refcounts() {
        let (mut hv, _guests, ids) = cloud(2);
        let mut plane = EventPlane::new();
        plane.arm_pair(&mut hv, ids[0], "hal.dll", true).unwrap();
        let once = hv.vm(ids[0]).unwrap().mem.watched_frames();
        plane.arm_pair(&mut hv, ids[0], "hal.dll", true).unwrap();
        assert_eq!(hv.vm(ids[0]).unwrap().mem.watched_frames(), once);
        plane.disarm_pair(&mut hv, ids[0], "hal.dll").unwrap();
        assert_eq!(hv.vm(ids[0]).unwrap().mem.watched_frames(), 0);
    }
}
