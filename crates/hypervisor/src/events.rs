//! Write-protection trap events: the push half of the monitoring story.
//!
//! The pull path (PR-3) proves a page unchanged by *probing* its
//! write-generation stamp — one page-table walk per page per round, even
//! when nothing moved. This module turns the same stamps into a *push*
//! pipeline, modelled on EPT-based kernel-object monitoring (arXiv
//! 1902.05135): frames are write-protected via [`crate::Vm::watch_range`],
//! every guest write landing in a watched frame appends a
//! [`crate::mem::TrappedWrite`] to that VM's trap log, and subscribers
//! drain the logs host-wide through [`Hypervisor::drain_write_events`].
//!
//! # Determinism
//!
//! Real trap delivery is asynchronous; goldens must be byte-stable. The
//! queue is therefore *seeded, simulated-time*: each trap's delivery
//! latency is a pure function of `(host seed, vm, frame, stamp)` — no RNG
//! state, no wall clock — and a drain returns events sorted by
//! `(latency, vm, frame, stamp)`. Two drains over the same guest history
//! with the same seed yield the same bytes, regardless of how many
//! subscribers exist or how often they poll: the log is append-only and
//! cursors are subscriber-owned, so drains are non-destructive reads
//! through `&Hypervisor` (the crate's no-interior-mutability rule holds —
//! only guest writes, under `&mut`, grow the logs).

use std::collections::HashMap;

use crate::simtime::SimDuration;
use crate::vm::VmId;
use crate::Hypervisor;

/// One trapped guest write, as delivered to a subscriber.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteEvent {
    /// VM whose guest fired the trap.
    pub vm: VmId,
    /// Frame number the write landed in.
    pub frame: u64,
    /// Write-generation stamp the write left on the frame.
    pub stamp: u64,
    /// Simulated latency between the guest write and the event reaching
    /// the subscriber (seeded jitter; see [`TrapModel`]).
    pub latency: SimDuration,
}

/// Deterministic trap-delivery model: latency = `base_ns` plus a jitter
/// drawn by pure hash from `(seed, vm, frame, stamp)`. With zero state it
/// is trivially identical across sequential and parallel drains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrapModel {
    /// Seed mixed into every latency draw (per-host).
    pub seed: u64,
    /// Floor latency of a trap exit + event-channel hop, in ns.
    pub base_ns: u64,
    /// Exclusive upper bound on the added jitter, in ns (0 = no jitter).
    pub jitter_ns: u64,
}

impl Default for TrapModel {
    fn default() -> Self {
        // ~5 µs floor (VM exit, event-channel notify, dom0 wakeup) with up
        // to 20 µs of scheduling jitter — well under one monitor round.
        TrapModel {
            seed: 0x4D43_5452_4150_2131, // "MCTRAP!1"
            base_ns: 5_000,
            jitter_ns: 20_000,
        }
    }
}

impl TrapModel {
    /// The delivery latency of one trap — a pure function of the model and
    /// the trap's identity, so replays and parallel drains agree.
    pub fn delivery_latency(&self, vm: VmId, frame: u64, stamp: u64) -> SimDuration {
        let jitter = if self.jitter_ns == 0 {
            0
        } else {
            // SplitMix64 finalizer over the mixed identity.
            let mut x = self
                .seed
                .wrapping_add(u64::from(vm.0).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(frame.rotate_left(17))
                .wrapping_add(stamp.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
            x % self.jitter_ns
        };
        SimDuration::from_nanos(self.base_ns + jitter)
    }
}

/// A subscriber's position in each VM's append-only trap log.
///
/// Cursors are owned by the subscriber, not the host, so any number of
/// independent subscribers can drain the same logs without coordinating
/// and without mutating the hypervisor.
#[derive(Clone, Debug, Default)]
pub struct EventCursor {
    seen: HashMap<VmId, usize>,
}

impl EventCursor {
    /// A cursor that has seen nothing (the first drain replays the whole
    /// log — arm watches *before* the writes you care about).
    pub fn new() -> Self {
        Self::default()
    }

    /// Entries of `vm`'s trap log already consumed.
    pub fn position(&self, vm: VmId) -> usize {
        self.seen.get(&vm).copied().unwrap_or(0)
    }
}

impl Hypervisor {
    /// Drains every write event this cursor has not yet seen, across all
    /// VMs, in deterministic delivery order (sorted by
    /// `(latency, vm, frame, stamp)`). Advances the cursor; the host is
    /// untouched (`&self` — logs are append-only, positions live in the
    /// subscriber's cursor).
    pub fn drain_write_events(&self, cursor: &mut EventCursor) -> Vec<WriteEvent> {
        let mut out = Vec::new();
        for id in self.vm_ids().collect::<Vec<_>>() {
            let Ok(vm) = self.vm(id) else { continue };
            let log = vm.mem.trap_log();
            let from = cursor.position(vm.id);
            for t in &log[from.min(log.len())..] {
                out.push(WriteEvent {
                    vm: vm.id,
                    frame: t.frame,
                    stamp: t.stamp,
                    latency: self.trap.delivery_latency(vm.id, t.frame, t.stamp),
                });
            }
            cursor.seen.insert(vm.id, log.len());
        }
        out.sort_by_key(|e| (e.latency, e.vm.0, e.frame, e.stamp));
        out
    }

    /// Number of trapped writes the cursor has not yet drained (metadata
    /// only — no events are consumed).
    pub fn pending_write_events(&self, cursor: &EventCursor) -> usize {
        self.vm_ids()
            .filter_map(|id| self.vm(id).ok())
            .map(|vm| {
                vm.mem
                    .trap_log()
                    .len()
                    .saturating_sub(cursor.position(vm.id))
            })
            .sum()
    }
}

/// A planned watch registration over one VM's frames.
///
/// Built by an introspection session (which borrows the [`crate::Vm`]
/// immutably and therefore can only *plan*), applied through
/// [`crate::Vm::apply_watch_plan`] / [`Hypervisor::apply_watch_plan`]
/// under `&mut` — the same split as "scanning takes `&`, building takes
/// `&mut`".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WatchPlan {
    /// VM the plan targets.
    pub vm: VmId,
    /// Guest-virtual base of the watched range.
    pub va: u64,
    /// Length of the watched range in bytes.
    pub len: u64,
    /// Frame numbers the range resolves to, in address order.
    pub frames: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::PAGE_SIZE;
    use crate::AddressWidth;

    fn host_with_vm() -> (Hypervisor, VmId, u64) {
        let mut hv = Hypervisor::new();
        let id = hv.create_vm("dom1", AddressWidth::W32).unwrap();
        let va = 0x8000_0000u64;
        let vm = hv.vm_mut(id).unwrap();
        vm.map_range(va, 4 * PAGE_SIZE as u64).unwrap();
        (hv, id, va)
    }

    #[test]
    fn unwatched_writes_fire_nothing() {
        let (mut hv, id, va) = host_with_vm();
        hv.vm_mut(id).unwrap().write_virt(va, b"quiet").unwrap();
        let mut cur = EventCursor::new();
        assert!(hv.drain_write_events(&mut cur).is_empty());
        assert_eq!(hv.pending_write_events(&cur), 0);
    }

    #[test]
    fn watched_write_fires_one_event_per_frame() {
        let (mut hv, id, va) = host_with_vm();
        hv.vm_mut(id)
            .unwrap()
            .watch_range(va, 2 * PAGE_SIZE as u64)
            .unwrap();
        let mut cur = EventCursor::new();
        assert!(hv.drain_write_events(&mut cur).is_empty());

        // A write spanning both watched pages → one event per frame.
        hv.vm_mut(id)
            .unwrap()
            .write_virt(va + PAGE_SIZE as u64 - 2, &[1, 2, 3, 4])
            .unwrap();
        let evs = hv.drain_write_events(&mut cur);
        assert_eq!(evs.len(), 2);
        assert_ne!(evs[0].frame, evs[1].frame);
        assert!(evs.iter().all(|e| e.vm == id && e.stamp > 0));

        // Writes outside the watched span stay silent.
        hv.vm_mut(id)
            .unwrap()
            .write_virt(va + 3 * PAGE_SIZE as u64, b"x")
            .unwrap();
        assert!(hv.drain_write_events(&mut cur).is_empty());
    }

    #[test]
    fn drains_are_non_destructive_and_per_subscriber() {
        let (mut hv, id, va) = host_with_vm();
        hv.vm_mut(id)
            .unwrap()
            .watch_range(va, PAGE_SIZE as u64)
            .unwrap();
        hv.vm_mut(id).unwrap().write_virt(va, b"hit").unwrap();

        let mut a = EventCursor::new();
        let mut b = EventCursor::new();
        let seen_a = hv.drain_write_events(&mut a);
        let seen_b = hv.drain_write_events(&mut b);
        assert_eq!(seen_a, seen_b, "independent subscribers see the same log");
        assert!(hv.drain_write_events(&mut a).is_empty(), "cursor advanced");
    }

    #[test]
    fn drain_order_is_deterministic_and_seeded() {
        let (mut hv, id, va) = host_with_vm();
        hv.vm_mut(id)
            .unwrap()
            .watch_range(va, 4 * PAGE_SIZE as u64)
            .unwrap();
        for i in 0..4u64 {
            hv.vm_mut(id)
                .unwrap()
                .write_virt(va + i * PAGE_SIZE as u64, b"w")
                .unwrap();
        }
        let drained: Vec<_> = hv.drain_write_events(&mut EventCursor::new());
        let again: Vec<_> = hv.drain_write_events(&mut EventCursor::new());
        assert_eq!(drained, again);
        // Latencies are bounded by the model and not all identical
        // (the seeded jitter actually jitters).
        let m = hv.trap;
        assert!(drained
            .iter()
            .all(|e| e.latency.as_nanos() >= m.base_ns
                && e.latency.as_nanos() < m.base_ns + m.jitter_ns));
        assert!(drained.windows(2).any(|w| w[0].latency != w[1].latency));

        // A different seed reorders/relabels deliveries deterministically.
        let mut hv2 = hv.clone();
        hv2.trap.seed ^= 0xDEAD_BEEF;
        let other = hv2.drain_write_events(&mut EventCursor::new());
        assert_eq!(other.len(), drained.len());
        assert_ne!(
            drained.iter().map(|e| e.latency).collect::<Vec<_>>(),
            other.iter().map(|e| e.latency).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn watch_unwatch_is_refcounted() {
        let (mut hv, id, va) = host_with_vm();
        let vm = hv.vm_mut(id).unwrap();
        vm.watch_range(va, PAGE_SIZE as u64).unwrap();
        vm.watch_range(va, PAGE_SIZE as u64).unwrap();
        vm.unwatch_range(va, PAGE_SIZE as u64).unwrap();
        vm.write_virt(va, b"still watched").unwrap();
        vm.unwatch_range(va, PAGE_SIZE as u64).unwrap();
        vm.write_virt(va, b"now silent").unwrap();
        let mut cur = EventCursor::new();
        let evs = hv.drain_write_events(&mut cur);
        assert_eq!(evs.len(), 1, "only the write under an armed watch fires");
    }

    #[test]
    fn watch_range_on_unmapped_page_arms_nothing() {
        let (mut hv, id, va) = host_with_vm();
        let vm = hv.vm_mut(id).unwrap();
        // The 5th page is unmapped: registration must fail atomically.
        assert!(vm.watch_range(va, 5 * PAGE_SIZE as u64).is_err());
        assert_eq!(vm.mem.watched_frames(), 0);
    }

    #[test]
    fn revert_preserves_watches_and_clone_does_not_inherit_them() {
        let (mut hv, id, va) = host_with_vm();
        {
            let vm = hv.vm_mut(id).unwrap();
            vm.snapshot("clean");
            vm.watch_range(va, PAGE_SIZE as u64).unwrap();
            vm.write_virt(va, b"infect").unwrap();
        }
        let mut cur = EventCursor::new();
        assert_eq!(hv.drain_write_events(&mut cur).len(), 1);

        // The clone is a new guest: no watches, no inherited log.
        let c = hv.clone_vm(id, "clone1").unwrap();
        assert_eq!(hv.vm(c).unwrap().mem.watched_frames(), 0);
        assert!(hv.vm(c).unwrap().mem.trap_log().is_empty());

        // Revert restores content but the watch survives: the next attack
        // still traps, with a fresh (monotonic) stamp.
        hv.vm_mut(id).unwrap().revert("clean").unwrap();
        assert!(
            hv.drain_write_events(&mut cur).is_empty(),
            "no revert event"
        );
        hv.vm_mut(id).unwrap().write_virt(va, b"again").unwrap();
        let evs = hv.drain_write_events(&mut cur);
        assert_eq!(evs.len(), 1, "watch survived the revert");
    }
}
