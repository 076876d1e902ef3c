//! Guest-physical memory: discontiguous 4 KiB frames.
//!
//! Guest "physical" memory is a pool of frames indexed by frame number;
//! guest-physical address = `frame_number << 12 | offset`. Frames are
//! allocated on demand by the paging layer and the guest loader. Keeping
//! frames individually allocated (rather than one flat `Vec<u8>`) mirrors
//! how a real hypervisor hands out machine frames, and it makes the
//! page-granular cost of introspection honest: a virtually-contiguous module
//! is physically scattered, so copying it out requires one map per page.

use crate::error::HvError;

/// log2 of the page size.
pub const PAGE_SHIFT: u32 = 12;
/// Guest page/frame size in bytes.
pub const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// The write-generation of one frame: which frame backs a page and the
/// global write-counter value of the last write that touched it. Two equal
/// `PageGeneration`s taken at different times prove the page's content did
/// not change in between (given the counter's monotonicity across
/// snapshot reverts — see [`GuestPhysMemory::keep_counter_at_least`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct PageGeneration {
    /// Frame number backing the page.
    pub frame: u64,
    /// Global write-counter value stamped by the last write to the frame
    /// (0 = never written since allocation).
    pub stamp: u64,
}

/// One guest write caught by a frame watch (EPT-style write protection).
///
/// The trap records *which* frame changed and the write-generation stamp
/// the write left behind — exactly the key an incremental rescanner needs
/// to refresh one page. Traps are appended to a per-VM log as the guest
/// writes; subscribers drain the log through
/// [`crate::Hypervisor::drain_write_events`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TrappedWrite {
    /// Frame number the write landed in.
    pub frame: u64,
    /// Write-generation stamp the write left on the frame.
    pub stamp: u64,
}

/// Watch + trap-log state, split out so [`crate::Vm::revert`] can carry it
/// across a snapshot restore: watches and the trap log belong to the
/// *introspection* plane, not to guest content, so reverting memory must
/// not silently disarm a monitor's traps.
#[derive(Clone, Debug, Default)]
pub struct WatchState {
    watch_counts: Vec<u32>,
    trap_log: Vec<TrappedWrite>,
}

/// A pool of guest-physical frames.
///
/// Every frame carries a *write-generation stamp*: a monotonically
/// increasing counter is bumped once per [`GuestPhysMemory::write_phys`]
/// call and stamped onto each frame the write touches. Introspectors use
/// the stamps to skip re-reading pages that provably did not change
/// (incremental rescanning); the stamps cost one `u64` per 4 KiB frame.
///
/// Frames can additionally be *watched* (write-protected, EPT-style): a
/// write landing in a watched frame appends a [`TrappedWrite`] to an
/// append-only trap log. The log is produced under `&mut self` (only guest
/// writes grow it) and read non-destructively through `&self`, preserving
/// the crate's no-interior-mutability rule.
#[derive(Clone, Debug, Default)]
pub struct GuestPhysMemory {
    frames: Vec<Box<[u8; PAGE_SIZE]>>,
    stamps: Vec<u64>,
    write_counter: u64,
    /// Per-frame watch reference counts (0 = unwatched). Kept in lockstep
    /// with `frames`; counts rather than booleans so overlapping module
    /// spans can arm and disarm independently.
    watch_counts: Vec<u32>,
    /// Append-only log of writes that hit watched frames.
    trap_log: Vec<TrappedWrite>,
}

impl GuestPhysMemory {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates one zeroed frame; returns its guest-physical base address.
    pub fn alloc_frame(&mut self) -> u64 {
        let pa = (self.frames.len() as u64) << PAGE_SHIFT;
        self.frames.push(Box::new([0u8; PAGE_SIZE]));
        self.stamps.push(0);
        self.watch_counts.push(0);
        pa
    }

    /// Number of allocated frames.
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Total allocated bytes.
    pub fn allocated_bytes(&self) -> usize {
        self.frames.len() * PAGE_SIZE
    }

    /// Reads `buf.len()` bytes starting at guest-physical `pa`. The range
    /// may span frames (frame numbers are contiguous in PA space even though
    /// the backing allocations are not).
    pub fn read_phys(&self, pa: u64, buf: &mut [u8]) -> Result<(), HvError> {
        let mut at = pa;
        let mut done = 0usize;
        while done < buf.len() {
            let frame = (at >> PAGE_SHIFT) as usize;
            let off = (at & (PAGE_SIZE as u64 - 1)) as usize;
            let frame_buf = self.frames.get(frame).ok_or(HvError::PhysOutOfRange {
                pa: at,
                frames: self.frames.len(),
            })?;
            let take = (PAGE_SIZE - off).min(buf.len() - done);
            buf[done..done + take].copy_from_slice(&frame_buf[off..off + take]);
            done += take;
            at += take as u64;
        }
        Ok(())
    }

    /// Writes `data` starting at guest-physical `pa` (may span frames).
    /// Bumps the write counter once and stamps every frame touched.
    pub fn write_phys(&mut self, pa: u64, data: &[u8]) -> Result<(), HvError> {
        if data.is_empty() {
            return Ok(());
        }
        let frames = self.frames.len();
        self.write_counter += 1;
        let gen = self.write_counter;
        let mut at = pa;
        let mut done = 0usize;
        while done < data.len() {
            let frame = (at >> PAGE_SHIFT) as usize;
            let off = (at & (PAGE_SIZE as u64 - 1)) as usize;
            let frame_buf = self
                .frames
                .get_mut(frame)
                .ok_or(HvError::PhysOutOfRange { pa: at, frames })?;
            let take = (PAGE_SIZE - off).min(data.len() - done);
            frame_buf[off..off + take].copy_from_slice(&data[done..done + take]);
            self.stamps[frame] = gen;
            if self.watch_counts[frame] > 0 {
                self.trap_log.push(TrappedWrite {
                    frame: frame as u64,
                    stamp: gen,
                });
            }
            done += take;
            at += take as u64;
        }
        Ok(())
    }

    /// The write-generation of the frame containing guest-physical `pa`.
    pub fn page_generation(&self, pa: u64) -> Result<PageGeneration, HvError> {
        let frame = (pa >> PAGE_SHIFT) as usize;
        let stamp = *self.stamps.get(frame).ok_or(HvError::PhysOutOfRange {
            pa,
            frames: self.frames.len(),
        })?;
        Ok(PageGeneration {
            frame: frame as u64,
            stamp,
        })
    }

    /// Current value of the global write counter.
    pub fn write_counter(&self) -> u64 {
        self.write_counter
    }

    /// Raises the write counter to at least `floor`. Snapshot revert uses
    /// this to keep the counter monotonic across reverts: the restored
    /// stamp vector may go backwards (it mirrors restored content), but
    /// counter values must never be re-issued, or a stale cached stamp
    /// could collide with a newer write.
    pub fn keep_counter_at_least(&mut self, floor: u64) {
        self.write_counter = self.write_counter.max(floor);
    }

    /// Arms a write-protection watch on one frame (reference-counted, so
    /// overlapping watched ranges compose). Subsequent writes to the frame
    /// append to the trap log.
    pub fn watch_frame(&mut self, frame: u64) -> Result<(), HvError> {
        let slot = self
            .watch_counts
            .get_mut(frame as usize)
            .ok_or(HvError::PhysOutOfRange {
                pa: frame << PAGE_SHIFT,
                frames: self.frames.len(),
            })?;
        *slot += 1;
        Ok(())
    }

    /// Releases one watch reference on a frame (no-op at zero).
    pub fn unwatch_frame(&mut self, frame: u64) -> Result<(), HvError> {
        let frames = self.frames.len();
        let slot = self
            .watch_counts
            .get_mut(frame as usize)
            .ok_or(HvError::PhysOutOfRange {
                pa: frame << PAGE_SHIFT,
                frames,
            })?;
        *slot = slot.saturating_sub(1);
        Ok(())
    }

    /// Number of frames with at least one watch armed.
    pub fn watched_frames(&self) -> u64 {
        self.watch_counts.iter().filter(|&&c| c > 0).count() as u64
    }

    /// The full trap log (append-only; index into it with a drain cursor).
    pub fn trap_log(&self) -> &[TrappedWrite] {
        &self.trap_log
    }

    /// Detaches the watch + trap-log state (used by snapshot revert to
    /// carry the introspection plane across a memory restore).
    pub fn take_watch_state(&mut self) -> WatchState {
        WatchState {
            watch_counts: std::mem::take(&mut self.watch_counts),
            trap_log: std::mem::take(&mut self.trap_log),
        }
    }

    /// Re-attaches watch + trap-log state, resizing the per-frame counts to
    /// the current frame population (restored memories may differ in size;
    /// new frames start unwatched, watches beyond the end are dropped).
    pub fn restore_watch_state(&mut self, mut state: WatchState) {
        state.watch_counts.resize(self.frames.len(), 0);
        self.watch_counts = state.watch_counts;
        self.trap_log = state.trap_log;
    }

    /// Drops every watch and the whole trap log (a cloned VM must not
    /// inherit its parent's subscriptions).
    pub fn clear_watch_state(&mut self) {
        self.watch_counts.iter_mut().for_each(|c| *c = 0);
        self.trap_log.clear();
    }

    /// Reads a little-endian `u32` at `pa`.
    pub fn read_u32(&self, pa: u64) -> Result<u32, HvError> {
        let mut b = [0u8; 4];
        self.read_phys(pa, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64` at `pa`.
    pub fn read_u64(&self, pa: u64) -> Result<u64, HvError> {
        let mut b = [0u8; 8];
        self.read_phys(pa, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian `u32` at `pa`.
    pub fn write_u32(&mut self, pa: u64, v: u32) -> Result<(), HvError> {
        self.write_phys(pa, &v.to_le_bytes())
    }

    /// Writes a little-endian `u64` at `pa`.
    pub fn write_u64(&mut self, pa: u64, v: u64) -> Result<(), HvError> {
        self.write_phys(pa, &v.to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_returns_sequential_frame_addresses() {
        let mut m = GuestPhysMemory::new();
        assert_eq!(m.alloc_frame(), 0);
        assert_eq!(m.alloc_frame(), PAGE_SIZE as u64);
        assert_eq!(m.frame_count(), 2);
        assert_eq!(m.allocated_bytes(), 2 * PAGE_SIZE);
    }

    #[test]
    fn rw_within_one_frame() {
        let mut m = GuestPhysMemory::new();
        let pa = m.alloc_frame();
        m.write_phys(pa + 100, b"hello").unwrap();
        let mut buf = [0u8; 5];
        m.read_phys(pa + 100, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn rw_across_frame_boundary() {
        let mut m = GuestPhysMemory::new();
        let a = m.alloc_frame();
        let _b = m.alloc_frame();
        let start = a + PAGE_SIZE as u64 - 3;
        m.write_phys(start, b"abcdef").unwrap();
        let mut buf = [0u8; 6];
        m.read_phys(start, &mut buf).unwrap();
        assert_eq!(&buf, b"abcdef");
    }

    #[test]
    fn out_of_range_access_is_error() {
        let mut m = GuestPhysMemory::new();
        let pa = m.alloc_frame();
        let mut buf = [0u8; 8];
        // Read starting in-bounds but running past the last frame.
        let late = pa + PAGE_SIZE as u64 - 4;
        assert!(matches!(
            m.read_phys(late, &mut buf),
            Err(HvError::PhysOutOfRange { .. })
        ));
        assert!(m.write_phys(PAGE_SIZE as u64 * 10, b"x").is_err());
    }

    #[test]
    fn scalar_helpers_round_trip() {
        let mut m = GuestPhysMemory::new();
        let pa = m.alloc_frame();
        m.write_u32(pa + 8, 0xDEAD_BEEF).unwrap();
        assert_eq!(m.read_u32(pa + 8).unwrap(), 0xDEAD_BEEF);
        m.write_u64(pa + 16, 0x0123_4567_89AB_CDEF).unwrap();
        assert_eq!(m.read_u64(pa + 16).unwrap(), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn write_stamps_every_frame_touched() {
        let mut m = GuestPhysMemory::new();
        let a = m.alloc_frame();
        let _b = m.alloc_frame();
        let c = m.alloc_frame();
        assert_eq!(m.page_generation(a).unwrap().stamp, 0, "fresh frames");

        // One spanning write bumps the counter once and stamps both frames.
        m.write_phys(a + PAGE_SIZE as u64 - 2, &[1, 2, 3, 4])
            .unwrap();
        assert_eq!(m.write_counter(), 1);
        assert_eq!(m.page_generation(a).unwrap().stamp, 1);
        assert_eq!(m.page_generation(a + PAGE_SIZE as u64).unwrap().stamp, 1);
        assert_eq!(m.page_generation(c).unwrap().stamp, 0, "untouched frame");

        // A later write to one frame moves only that frame's stamp.
        m.write_phys(c, b"x").unwrap();
        assert_eq!(m.page_generation(c).unwrap().stamp, 2);
        assert_eq!(m.page_generation(a).unwrap().stamp, 1);
    }

    #[test]
    fn generation_identifies_the_backing_frame() {
        let mut m = GuestPhysMemory::new();
        let a = m.alloc_frame();
        let b = m.alloc_frame();
        assert_eq!(m.page_generation(a).unwrap().frame, 0);
        assert_eq!(m.page_generation(b + 7).unwrap().frame, 1);
        assert!(m.page_generation(PAGE_SIZE as u64 * 9).is_err());
    }

    #[test]
    fn empty_write_does_not_stamp() {
        let mut m = GuestPhysMemory::new();
        let pa = m.alloc_frame();
        m.write_phys(pa, &[]).unwrap();
        assert_eq!(m.write_counter(), 0);
        assert_eq!(m.page_generation(pa).unwrap().stamp, 0);
    }

    #[test]
    fn counter_floor_is_monotonic() {
        let mut m = GuestPhysMemory::new();
        let pa = m.alloc_frame();
        m.write_phys(pa, b"a").unwrap();
        m.keep_counter_at_least(10);
        assert_eq!(m.write_counter(), 10);
        m.keep_counter_at_least(3); // lower floors never reduce it
        assert_eq!(m.write_counter(), 10);
        m.write_phys(pa, b"b").unwrap();
        assert_eq!(m.page_generation(pa).unwrap().stamp, 11);
    }

    #[test]
    fn frames_start_zeroed() {
        let mut m = GuestPhysMemory::new();
        let pa = m.alloc_frame();
        let mut buf = vec![1u8; PAGE_SIZE];
        m.read_phys(pa, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
    }
}
