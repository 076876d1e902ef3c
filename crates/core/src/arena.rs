//! Capture arena — recycled backing storage for module captures.
//!
//! A pool scan captures the same modules round after round; allocating a
//! fresh multi-page `Vec<u8>` per capture (and another deep copy per
//! canonical normalization) churns the allocator for buffers whose sizes
//! repeat exactly. [`CaptureArena`] keeps retired buffers on a free list
//! and hands them back out best-fit: a steady-state scan reaches a fixed
//! point where every capture reuses a previous round's allocation.
//!
//! Lifetime rules (DESIGN.md §14):
//!
//! * The arena never aliases: [`CaptureArena::acquire`] transfers
//!   ownership out, [`CaptureArena::release`] transfers it back. A buffer
//!   is either *in the arena* or *owned by exactly one capture* — the
//!   borrow checker enforces what a bump-pointer arena would need unsafe
//!   code for.
//! * Shared captures ([`std::sync::Arc`]) are reclaimed opportunistically:
//!   [`CaptureArena::reclaim`] recovers the backing buffer only when the
//!   caller held the last reference, else the buffer stays alive with its
//!   remaining holders and nothing is recycled (never a copy, never a
//!   dangling slice).
//! * The bound depends on how long captures hold their buffers. A
//!   capture cache keeps its captures for many rounds, so its arena
//!   (the default) fits tightly: when no free buffer fits, it
//!   allocates one beside them, and the free list is capped at
//!   [`CaptureArena::MAX_RETAINED`]. An uncached scan returns every
//!   capture when its report is built, so its arena
//!   ([`CaptureArena::per_scan`]) is bounded by its busiest scan: when no
//!   free buffer fits, [`CaptureArena::acquire`] grows the largest free
//!   buffer instead. A fresh allocation then happens only when the free
//!   list is empty, so the buffers in circulation never outnumber the
//!   captures held at once. Growth would not suit a cache: it hands
//!   large buffers to small captures the cache then keeps.

use std::sync::Arc;

use crate::checker::ExtractedModule;

/// Recycled-buffer statistics (exported as `capture_arena_*` gauges).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffers handed out that needed a fresh heap allocation.
    pub allocs: u64,
    /// Buffers handed out from the free list (no allocation).
    pub reuses: u64,
    /// Total bytes of capacity returned to the free list over time.
    pub recycled_bytes: u64,
}

/// A free list of capture buffers (see module docs). The default arena
/// fits tightly, for captures held across rounds.
#[derive(Clone, Debug, Default)]
pub(crate) struct CaptureArena {
    free: Vec<Vec<u8>>,
    stats: ArenaStats,
    /// Grow the largest free buffer when none fits, and keep every
    /// released buffer ([`Self::per_scan`]).
    grows: bool,
}

impl CaptureArena {
    /// Free-list bound of a tight-fitting arena: retiring a buffer past
    /// this many drops it.
    pub const MAX_RETAINED: usize = 64;

    /// An empty arena for captures that all come back after each scan,
    /// bounded by the most captures one scan held at once.
    pub(crate) fn per_scan() -> Self {
        CaptureArena {
            grows: true,
            ..CaptureArena::default()
        }
    }

    /// Hands out a zeroed buffer of exactly `len` bytes, reusing the
    /// best-fitting retired buffer (smallest capacity that holds `len`)
    /// when one exists. When none fits, a [`Self::per_scan`] arena grows
    /// its largest retired buffer to `len` (counted as an allocation);
    /// otherwise a new buffer is allocated.
    pub fn acquire(&mut self, len: usize) -> Vec<u8> {
        let best = self
            .free
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= len)
            .min_by_key(|(_, b)| b.capacity())
            .or_else(|| {
                let largest = self
                    .free
                    .iter()
                    .enumerate()
                    .max_by_key(|(_, b)| b.capacity());
                largest.filter(|_| self.grows)
            })
            .map(|(i, _)| i);
        let Some(i) = best else {
            self.stats.allocs += 1;
            return vec![0u8; len];
        };
        let mut buf = self.free.swap_remove(i);
        if buf.capacity() >= len {
            self.stats.reuses += 1;
        } else {
            self.stats.allocs += 1;
        }
        buf.clear();
        buf.reserve_exact(len);
        buf.resize(len, 0);
        buf
    }

    /// Returns a buffer to the free list (dropped if a tight-fitting
    /// arena's list is full).
    pub fn release(&mut self, buf: Vec<u8>) {
        if buf.capacity() == 0 || (!self.grows && self.free.len() >= Self::MAX_RETAINED) {
            return;
        }
        self.stats.recycled_bytes += buf.capacity() as u64;
        self.free.push(buf);
    }

    /// Recovers the image buffer out of a shared capture if `module` was
    /// its last reference; otherwise the capture (and its buffer) live on
    /// with the other holders and nothing happens.
    pub fn reclaim(&mut self, module: Arc<ExtractedModule>) {
        if let Ok(owned) = Arc::try_unwrap(module) {
            self.release(owned.image.bytes);
        }
    }

    /// Buffers currently parked on the free list.
    #[cfg(test)]
    pub(crate) fn retained(&self) -> usize {
        self.free.len()
    }

    /// Allocation/reuse counters.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_allocates_then_reuses() {
        let mut a = CaptureArena::default();
        let b1 = a.acquire(4096);
        assert_eq!(a.stats().allocs, 1);
        a.release(b1);
        let b2 = a.acquire(4096);
        assert_eq!(a.stats().reuses, 1);
        assert_eq!(b2.len(), 4096);
        assert!(
            b2.iter().all(|&x| x == 0),
            "reused buffers come back zeroed"
        );
    }

    #[test]
    fn best_fit_prefers_the_tightest_buffer() {
        let mut a = CaptureArena::default();
        a.release(vec![1u8; 16 * 1024]);
        a.release(vec![1u8; 4 * 1024]);
        let b = a.acquire(3 * 1024);
        assert_eq!(b.capacity(), 4 * 1024, "tightest fit wins");
        assert_eq!(a.retained(), 1);
    }

    #[test]
    fn too_small_buffers_are_not_reused() {
        let mut a = CaptureArena::default();
        a.release(vec![1u8; 1024]);
        let b = a.acquire(8 * 1024);
        assert_eq!(a.stats().allocs, 1);
        assert_eq!(b.len(), 8 * 1024);
        assert_eq!(a.retained(), 1, "the small buffer stays parked");
    }

    #[test]
    fn free_list_is_bounded() {
        let mut a = CaptureArena::default();
        for _ in 0..(CaptureArena::MAX_RETAINED + 10) {
            a.release(vec![0u8; 64]);
        }
        assert_eq!(a.retained(), CaptureArena::MAX_RETAINED);
    }

    #[test]
    fn a_per_scan_arena_grows_a_too_small_buffer_instead_of_keeping_it() {
        let mut a = CaptureArena::per_scan();
        a.release(vec![1u8; 1024]);
        let b = a.acquire(8 * 1024);
        assert_eq!(a.stats().allocs, 1, "growing counts as an allocation");
        assert_eq!(a.stats().reuses, 0);
        assert_eq!(b.len(), 8 * 1024);
        assert!(b.iter().all(|&x| x == 0), "grown buffers come back zeroed");
        assert_eq!(a.retained(), 0, "the small buffer became the large one");
    }

    #[test]
    fn a_per_scan_arena_retains_at_most_one_rounds_buffers() {
        const N: usize = 5;
        let mut a = CaptureArena::per_scan();
        let mut len = 1024;
        for _ in 0..40 {
            let mut held = Vec::with_capacity(N);
            for _ in 0..N {
                held.push(a.acquire(len));
                len += 512;
            }
            for buf in held {
                a.release(buf);
            }
            assert!(a.retained() <= N, "{} buffers retained", a.retained());
        }
    }

    #[test]
    fn reclaim_recovers_only_sole_ownership() {
        use crate::digest::DigestAlgo;
        use crate::parts::ModuleParts;
        use crate::searcher::ModuleImage;
        use mc_hypervisor::VmId;

        let module = |bytes: Vec<u8>| {
            Arc::new(ExtractedModule {
                image: ModuleImage {
                    vm: VmId(0),
                    vm_name: "dom0".into(),
                    name: "m".into(),
                    base: 0,
                    bytes,
                },
                parts: ModuleParts {
                    parts: Vec::new(),
                    exec_sections: Vec::new(),
                    image_len: 2048,
                    width: mc_pe::AddressWidth::W32,
                },
                header_hashes: Vec::new(),
                algo: DigestAlgo::Md5,
                canonical: Default::default(),
            })
        };

        let mut a = CaptureArena::default();
        // Sole owner: buffer comes back.
        a.reclaim(module(vec![0u8; 2048]));
        assert_eq!(a.retained(), 1);
        // Shared: the other holder keeps it alive, nothing recycled.
        let shared = module(vec![0u8; 2048]);
        let keep = Arc::clone(&shared);
        a.reclaim(shared);
        assert_eq!(a.retained(), 1);
        assert_eq!(keep.image.bytes.len(), 2048);
    }
}
