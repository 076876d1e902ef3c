//! Algorithm 2 — adjusting relative virtual addresses by pairwise diff.
//!
//! After loading, each absolute-address slot in a module's executable code
//! holds `RVA + base`, and `base` differs per VM, so byte-identical code
//! hashes differently across VMs. The paper's insight: ModChecker doesn't
//! need relocation metadata to undo this. Comparing the same section from
//! two VMs, *every byte difference must be part of a relocated address* (as
//! long as nobody tampered with the code). So:
//!
//! 1. Find `offset`, the 1-based index of the first byte (in memory order,
//!    i.e. little-endian) where the two base addresses differ. Differences
//!    in the loaded images can then only begin at slot byte `offset − 1`,
//!    because lower bytes of `RVA + base` agree when the low base bytes
//!    agree (equal addends, equal carries).
//! 2. Scan both sections; at a differing byte `j`, the address slot starts
//!    at `j − offset + 1`. Read both slots, compute `RVA = abs − base`
//!    (Equation 1) on each side; if the RVAs agree it was relocation —
//!    rewrite both slots to the RVA. If they disagree, the difference is
//!    *tampering*; leave it (the hashes will expose it).
//!
//! The scan looks for each next differing byte eight bytes at a time (the
//! lowest nonzero byte of two XORed little-endian words), which stops at
//! exactly the bytes a byte-by-byte loop would. Where nearly every byte
//! differs (code shifted by an inserted instruction), it also settles whole
//! eight-byte blocks at once: a rewrite at a differing byte needs that
//! byte pair to differ by an amount the bases fix, so a block with no
//! such pair holds only residuals, which it counts. The scan reads both
//! sections in place (`adjust_read_only`); [`adjust_rvas`] then replays
//! its log onto each side.
//!
//! The paper's Algorithm 2 line 22 reads `j ← j − offset + 1 − 4`, which
//! would move the cursor backwards and never terminate; it is a typo for
//! advancing *past* the 4-byte slot, which is what this implementation does.
//!
//! If the two bases are identical (possible: the allocator may coincide),
//! no adjustment is needed or attempted — the images are directly
//! comparable (`IsDifferenceExist = 0` in the paper).

use std::ops::Range;

use mc_hypervisor::AddressWidth;
use mc_pe::parser::ParsedModule;
use mc_pe::reloc::parse_reloc_section;

/// Outcome statistics of one pairwise adjustment pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdjustStats {
    /// Address slots recognized as relocation and rewritten to RVAs on both
    /// sides.
    pub slots_adjusted: usize,
    /// Byte differences that did *not* reconcile as relocation — tampering
    /// (or structural divergence). A section-length mismatch counts its
    /// truncated tail here too: bytes past `min(len_a, len_b)` can never
    /// reconcile, and length divergence is itself structural tampering
    /// evidence. Nonzero residuals always surface as hash mismatches.
    pub residual_diffs: usize,
    /// Bytes scanned (min of the two section lengths).
    pub bytes_scanned: usize,
    /// True if the base addresses were identical (no adjustment possible or
    /// needed).
    pub identical_bases: bool,
}

/// Reads a `width`-byte little-endian value.
fn read_le(buf: &[u8], at: usize, width: usize) -> u64 {
    let mut v = 0u64;
    for i in (0..width).rev() {
        v = (v << 8) | buf[at + i] as u64;
    }
    v
}

/// Writes a `width`-byte little-endian value.
fn write_le(buf: &mut [u8], at: usize, v: u64, width: usize) {
    for i in 0..width {
        buf[at + i] = (v >> (8 * i)) as u8;
    }
}

/// Index of the first byte at or after `from` where `a` and `b` differ,
/// both read up to `len`. Compares eight bytes at a time: the lowest
/// nonzero byte of the XOR of two little-endian words is the first
/// differing one.
fn next_difference(a: &[u8], b: &[u8], from: usize, len: usize) -> Option<usize> {
    let (a, b) = (&a[from..len], &b[from..len]);
    for (k, (wa, wb)) in a.chunks_exact(8).zip(b.chunks_exact(8)).enumerate() {
        let x = word(wa) ^ word(wb);
        if x != 0 {
            return Some(from + 8 * k + (x.trailing_zeros() / 8) as usize);
        }
    }
    let tail = a.len() - a.len() % 8;
    (tail..a.len()).find(|&k| a[k] != b[k]).map(|k| from + k)
}

/// An 8-byte chunk as a little-endian word.
fn word(chunk: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w.copy_from_slice(chunk);
    u64::from_le_bytes(w)
}

/// Runs Algorithm 2 over one section captured from two VMs, rewriting
/// reconciled address slots to RVAs **in both buffers**.
///
/// `base_a`/`base_b` are the modules' load bases (`DllBase`). Returns
/// adjustment statistics; after this call, equal-content sections hash
/// equal, and any tampering shows up as `residual_diffs > 0` plus a hash
/// mismatch.
///
/// The pass is [`adjust_read_only`] followed by a replay of its slot log
/// onto each side. Each rewrite reads one side's own (possibly already
/// rewritten) buffer and subtracts that side's own base, and writes the
/// same value to both sides, so the adjusted sections differ exactly where
/// [`adjusted_differ`] says.
pub fn adjust_rvas(
    a: &mut [u8],
    b: &mut [u8],
    base_a: u64,
    base_b: u64,
    width: AddressWidth,
) -> AdjustStats {
    let mut slots = Vec::new();
    let stats = adjust_read_only(a, b, base_a, base_b, width, &mut slots);
    let (w, mask) = (width.bytes(), width_mask(width));
    for (buf, base) in [(a, base_a), (b, base_b)] {
        for &s in &slots {
            let s = s as usize;
            let rva = read_le(buf, s, w).wrapping_sub(base) & mask;
            write_le(buf, s, rva, w);
        }
    }
    stats
}

/// [`adjust_rvas`] without writing to either section: the same statistics,
/// and each reconciled slot's offset appended to `slots` in rewrite order.
/// Offsets fit in `u32`: captures are capped at
/// [`crate::error::MAX_MODULE_SIZE`].
pub(crate) fn adjust_read_only(
    a: &[u8],
    b: &[u8],
    base_a: u64,
    base_b: u64,
    width: AddressWidth,
    slots: &mut Vec<u32>,
) -> AdjustStats {
    let len = a.len().min(b.len());
    // Bytes past the common prefix cannot be scanned, let alone reconciled;
    // count the whole truncated tail as residual so mismatched-length
    // captures can never under-report.
    let mut stats = AdjustStats {
        bytes_scanned: len,
        residual_diffs: a.len().max(b.len()) - len,
        ..AdjustStats::default()
    };
    // Lines 1–9: offset of the first differing base-address byte.
    match InPlace::new(&a[..len], &b[..len], base_a, base_b, width) {
        Some(pass) => {
            pass.run(0, None, &[], &mut stats, slots);
        }
        None => stats.identical_bases = true,
    }
    stats
}

/// Algorithm 2 lines 11–23 over two sections of equal length, read in
/// place: neither section is written.
///
/// Bytes at or past the cursor were never rewritten. A rewrite moves the
/// cursor past its slot, and a later read starts above the slot's first
/// byte, so the rewritten bytes any read can reach are those of the
/// latest rewrite alone, which overwrote whatever earlier rewrites left in
/// its slot. Reads go through that one-slot overlay, the same on both
/// sides; everything else comes from the sections themselves.
struct InPlace<'s> {
    a: &'s [u8],
    b: &'s [u8],
    base_a: u64,
    base_b: u64,
    width: AddressWidth,
    offset: usize,
    key: u8,
}

/// A rewrite: its slot and the value both sides hold there.
type Rewrite = (usize, u64);

impl<'s> InPlace<'s> {
    /// `None` when the bases agree in their low `w` bytes
    /// (`IsDifferenceExist = 0`: nothing to adjust).
    fn new(
        a: &'s [u8],
        b: &'s [u8],
        base_a: u64,
        base_b: u64,
        width: AddressWidth,
    ) -> Option<Self> {
        let offset = base_offset(base_a, base_b, width)?;
        Some(InPlace {
            a,
            b,
            base_a,
            base_b,
            width,
            offset,
            key: rewrite_key(base_a, base_b, offset),
        })
    }

    /// `width` bytes at `at` as the pass finds them.
    fn read(&self, buf: &[u8], at: usize, latest: Option<Rewrite>) -> u64 {
        let w = self.width.bytes();
        match latest {
            Some((r, v)) if at < r + w => (0..w).rev().fold(0u64, |acc, i| {
                let q = at + i;
                let byte = if q < r + w {
                    (v >> (8 * (q - r))) as u8
                } else {
                    buf[q]
                };
                (acc << 8) | u64::from(byte)
            }),
            _ => read_le(buf, at, w),
        }
    }

    /// Runs the scan from cursor `j`, `latest` being the last rewrite
    /// before it, adding to `stats` and appending each rewritten slot to
    /// `slots`. Stops at the end of the sections, or right after a rewrite
    /// at an offset listed in `stop`. Returns the cursor, the latest
    /// rewrite, and the index in `stop` it stopped at.
    fn run(
        &self,
        mut j: usize,
        mut latest: Option<Rewrite>,
        stop: &[u32],
        stats: &mut AdjustStats,
        slots: &mut Vec<u32>,
    ) -> (usize, Option<Rewrite>, Option<usize>) {
        let (a, b, len) = (self.a, self.b, self.a.len());
        let (w, mask) = (self.width.bytes(), width_mask(self.width));
        while let Some(d) = next_difference(a, b, j, len) {
            j = d;
            let (end, residuals) = residual_blocks(a, b, j, len, self.key);
            if end > j {
                stats.residual_diffs += residuals;
                j = end;
                continue;
            }
            // Slot start: j − offset + 1 (the paper's line 13/14 index).
            let slot = match (j + 1).checked_sub(self.offset) {
                Some(s) if s + w <= len => s,
                // Difference too close to a section edge to hold an address.
                _ => {
                    stats.residual_diffs += 1;
                    j += 1;
                    continue;
                }
            };
            let rva_a = self.read(a, slot, latest).wrapping_sub(self.base_a) & mask;
            let rva_b = self.read(b, slot, latest).wrapping_sub(self.base_b) & mask;
            if rva_a != rva_b {
                stats.residual_diffs += 1;
                j += 1;
                continue;
            }
            latest = Some((slot, rva_a));
            slots.push(slot as u32);
            stats.slots_adjusted += 1;
            j = slot + w;
            if let Ok(k) = stop.binary_search(&(slot as u32)) {
                return (j, latest, Some(k));
            }
        }
        (len, latest, None)
    }
}

/// Whether sections `a` and `b` differ once a pass that logged `slots`
/// has rewritten them. Each rewrite wrote one value to both sides, so a
/// byte inside any logged slot ends equal, and every other byte keeps its
/// original value: the sections differ exactly when they differ in a byte
/// no logged slot covers, or in length.
pub(crate) fn adjusted_differ(a: &[u8], b: &[u8], slots: &[u32], width: AddressWidth) -> bool {
    a.len() != b.len() || uncovered_difference(a, b, 0..a.len(), slots, width)
}

/// Whether `a` and `b` differ at an offset in `range` that none of the
/// `width`-byte slots at `slots` (ascending) covers.
fn uncovered_difference(
    a: &[u8],
    b: &[u8],
    range: Range<usize>,
    slots: &[u32],
    width: AddressWidth,
) -> bool {
    let w = width.bytes();
    // Starts ascend, so the first slot ending past `d` is the only one
    // that can cover it.
    let mut k = 0usize;
    let mut j = range.start;
    while let Some(d) = next_difference(a, b, j, range.end) {
        while slots.get(k).is_some_and(|&s| s as usize + w <= d) {
            k += 1;
        }
        match slots.get(k) {
            Some(&s) if s as usize <= d => j = s as usize + w,
            _ => return true,
        }
    }
    false
}

/// The byte difference `a[j] − b[j]` (mod 256) that a rewrite backing up
/// from a differing byte `j` requires.
///
/// A rewrite needs `read(a, slot) − read(b, slot) ≡ base_a − base_b`, and
/// `slot = j − offset + 1`. The bases agree in their low `offset − 1`
/// bytes, so that difference is zero there: the slots' bytes below `j`
/// agree, no borrow reaches byte `j`, and `a[j] − b[j]` must equal byte
/// `offset − 1` of `base_a − base_b`, which is nonzero because the bases
/// differ there.
fn rewrite_key(base_a: u64, base_b: u64, offset: usize) -> u8 {
    (base_a.wrapping_sub(base_b) >> (8 * (offset - 1))) as u8
}

/// Settles the bytes from `from` on, eight at a time, up to the first byte
/// pair that differs by `key` ([`rewrite_key`]): no rewrite can start
/// before it, so each differing byte there is a residual, whether or not
/// its slot fits the section, and the byte loop would step over it one
/// byte at a time. Returns where settling stopped (that byte pair, or the
/// last whole block) and the residuals counted before it.
fn residual_blocks(a: &[u8], b: &[u8], from: usize, len: usize, key: u8) -> (usize, usize) {
    const LOW: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    // The high bit of each nonzero byte of `x`.
    let nonzero = |x: u64| (((x & LOW) + LOW) | x) & HIGH;
    let keys = u64::from(key) * 0x0101_0101_0101_0101;
    let (mut j, mut residuals) = (from, 0usize);
    while j + 8 <= len {
        let (wa, wb) = (word(&a[j..j + 8]), word(&b[j..j + 8]));
        // Bytewise `wa − wb` mod 256, with no borrow between bytes.
        let diff = ((wa | HIGH) - (wb & !HIGH)) ^ ((wa ^ !wb) & HIGH);
        if nonzero(diff ^ keys) != HIGH {
            break;
        }
        // One per differing byte, summed by a multiply (at most 8).
        residuals += ((nonzero(wa ^ wb) >> 7).wrapping_mul(0x0101_0101_0101_0101) >> 56) as usize;
        j += 8;
    }
    (j, residuals)
}

/// Algorithm 2's `offset`: one plus the index of the first of the low
/// `width` bytes where the bases differ, or `None` when those bytes are
/// identical (`IsDifferenceExist = 0`: nothing to adjust).
fn base_offset(base_a: u64, base_b: u64, width: AddressWidth) -> Option<usize> {
    let (ba, bb) = (base_a.to_le_bytes(), base_b.to_le_bytes());
    (0..width.bytes())
        .position(|i| ba[i] != bb[i])
        .map(|i| i + 1)
}

/// True when `slots` (offsets into a section of `len` bytes, sorted and
/// deduplicated) lie fully inside the section and at least one address
/// width apart, the precondition of [`adjust_grouped`].
pub(crate) fn slots_are_disjoint(slots: &[u32], len: usize, width: AddressWidth) -> bool {
    let w = width.bytes();
    slots.last().is_none_or(|&s| s as usize + w <= len)
        && slots.windows(2).all(|p| (p[1] - p[0]) as usize >= w)
}

/// True when sections `a` and `b`, each normalized by its own base as
/// [`feed_normalized`] does, hold the same bytes. Compared in place: equal
/// normalized slots hold `abs_b = abs_a + (base_b − base_a)`, so the gaps
/// must be equal and each slot must differ by the bases' difference.
/// `slots` must be [`slots_are_disjoint`] for both.
pub(crate) fn same_normalized(
    a: &[u8],
    base_a: u64,
    b: &[u8],
    base_b: u64,
    slots: &[u32],
    width: AddressWidth,
) -> bool {
    let (w, mask) = (width.bytes(), width_mask(width));
    let delta = base_b.wrapping_sub(base_a) & mask;
    let mut at = 0;
    a.len() == b.len()
        && slots.iter().all(|&s| {
            let s = s as usize;
            let gap = a[at..s] == b[at..s];
            at = s + w;
            gap && read_le(a, s, w).wrapping_add(delta) & mask == read_le(b, s, w)
        })
        && a[at..] == b[at..]
}

/// Feeds `section` to `feed` with every one of `slots` rewritten from
/// `abs` to `(abs − base) & mask` (the normalization
/// [`normalize_with_reloc_table`] applies to one slot), in order. The bytes
/// pass through one 4 KiB window on the stack and are rewritten there, so
/// `feed` sees whole windows however dense the slots are. `slots` must be
/// [`slots_are_disjoint`].
pub(crate) fn feed_normalized(
    section: &[u8],
    base: u64,
    slots: &[u32],
    width: AddressWidth,
    mut feed: impl FnMut(&[u8]),
) {
    const WINDOW: usize = 4096;
    let (w, mask) = (width.bytes(), width_mask(width));
    let mut window = [0u8; WINDOW];
    let mut next = 0;
    for (k, bytes) in section.chunks(WINDOW).enumerate() {
        let (lo, hi) = (k * WINDOW, k * WINDOW + bytes.len());
        let win = &mut window[..bytes.len()];
        win.copy_from_slice(bytes);
        // Each slot starting before the window's end; one straddling the
        // end is written again, in part, in the next window.
        for &s in &slots[next..] {
            let s = s as usize;
            if s >= hi {
                break;
            }
            let value = read_le(section, s, w).wrapping_sub(base) & mask;
            if s >= lo && s + w <= hi {
                write_le(win, s - lo, value, w);
                next += 1;
                continue;
            }
            for (at, &b) in (s..s + w).zip(&value.to_le_bytes()) {
                if (lo..hi).contains(&at) {
                    win[at - lo] = b;
                }
            }
            next += usize::from(s + w <= hi);
        }
        feed(win);
    }
}

/// The segments of `slots` on which sections `a` and `b` (equal lengths,
/// [`slots_are_disjoint`] slots) normalize to different bytes, ascending.
/// Segment `k < slots.len()` is the gap ending at slot `k` plus that slot;
/// segment `slots.len()` is the gap after the last slot.
pub(crate) fn differing_segments<'s>(
    a: &'s [u8],
    base_a: u64,
    b: &'s [u8],
    base_b: u64,
    slots: &'s [u32],
    width: AddressWidth,
) -> impl Iterator<Item = u32> + 's {
    let (w, mask) = (width.bytes(), width_mask(width));
    let gap_start = move |k: usize| if k == 0 { 0 } else { slots[k - 1] as usize + w };
    (0..=slots.len())
        .filter(move |&k| {
            let at = gap_start(k);
            match slots.get(k) {
                Some(&s) => {
                    let s = s as usize;
                    let rva_a = read_le(a, s, w).wrapping_sub(base_a) & mask;
                    let rva_b = read_le(b, s, w).wrapping_sub(base_b) & mask;
                    a[at..s] != b[at..s] || rva_a != rva_b
                }
                None => a[at..] != b[at..],
            }
        })
        .map(|k| k as u32)
}

/// Algorithm 2 over sections `a` and `b` of equal length that normalize
/// over the same [`slots_are_disjoint`] slot list `slots`, given the
/// segments `differing` on which their normalized bytes differ
/// ([`differing_segments`]). Returns the statistics [`adjust_rvas`]
/// would, and whether the adjusted sections differ; `None` when the bases
/// agree in their low `w` bytes. `log` is scratch for the slots one
/// stretch rewrites.
///
/// On an equal segment the byte scan takes the closed form of
/// [`adjust_grouped`]: arriving at the segment's start, it finds the
/// slot's first difference, rewrites the slot and resumes past it,
/// reading nothing before the segment. So the scan crosses runs of equal
/// segments by counting their slots. From the start of a differing
/// segment it runs the in-place scan, the slot before it as the latest
/// rewrite, until a rewrite lands on a listed slot: past that slot no
/// rewrite has touched the bytes, so the pass is at the start of the next
/// segment again. Only the differing stretches are scanned.
pub(crate) fn adjust_segmented(
    a: &[u8],
    b: &[u8],
    base_a: u64,
    base_b: u64,
    width: AddressWidth,
    (slots, differing): (&[u32], &[u32]),
    log: &mut Vec<u32>,
) -> Option<(AdjustStats, bool)> {
    let pass = InPlace::new(a, b, base_a, base_b, width)?;
    let (w, mask) = (width.bytes(), width_mask(width));
    let mut stats = AdjustStats {
        bytes_scanned: a.len(),
        ..AdjustStats::default()
    };
    let mut differ = false;
    // The next segment to cross, and the latest rewrite before it.
    let (mut next, mut latest) = (0usize, None);
    for &seg in differing {
        let seg = seg as usize;
        if seg < next {
            continue;
        }
        if seg > next {
            stats.slots_adjusted += seg - next;
            let s = slots[seg - 1] as usize;
            latest = Some((s, read_le(a, s, w).wrapping_sub(base_a) & mask));
        }
        let from = latest.map_or(0, |(s, _)| s + w);
        log.clear();
        let (end, last, stopped) = pass.run(from, latest, slots, &mut stats, log);
        // Bytes before the cursor are final: later rewrites reach back no
        // further than the slot just written, equal on both sides.
        differ |= uncovered_difference(a, b, from..end, log, width);
        match stopped {
            Some(k) => (next, latest) = (k + 1, last),
            None => return Some((stats, differ)),
        }
    }
    stats.slots_adjusted += slots.len() - next;
    Some((stats, differ))
}

/// [`adjust_rvas`]'s statistics in closed form, for two sections
/// of `len` bytes that normalize to the same bytes over the same
/// [`slots_are_disjoint`] slot list of `slots` entries.
///
/// Each side is then its shared normalized bytes with every slot rebased
/// by that side's own base. When the bases differ in their low `w` bytes,
/// the first of them to differ is byte `offset − 1`: the bytes below it
/// and their carries agree inside every slot, and that byte of the sum
/// does not. So each slot's first difference is at `slot + offset − 1`,
/// the scan backs up onto the slot, both sides read the same RVA, and the
/// rewrite resumes past the slot, where nothing differs before the next
/// one. Every slot is adjusted, none leaves a residual, the log is the
/// slot list and both buffers end as the normalized bytes. When the low
/// bytes agree, both sides are already byte-identical and nothing is
/// adjusted.
pub(crate) fn adjust_grouped(
    slots: usize,
    len: usize,
    base_a: u64,
    base_b: u64,
    width: AddressWidth,
) -> AdjustStats {
    let identical_bases = base_offset(base_a, base_b, width).is_none();
    AdjustStats {
        slots_adjusted: if identical_bases { 0 } else { slots },
        residual_diffs: 0,
        bytes_scanned: len,
        identical_bases,
    }
}

/// The mask that keeps an RVA to the guest word size (32-bit arithmetic
/// wraps mod 2^32).
fn width_mask(width: AddressWidth) -> u64 {
    match width {
        AddressWidth::W32 => 0xFFFF_FFFF,
        AddressWidth::W64 => u64::MAX,
    }
}

/// Relocation-table-driven normalization (ablation ABL-2).
///
/// Instead of diffing two captures, parse the module's own `.reloc` section
/// and rewrite every listed slot from `abs` to `abs − base`. Works on a
/// single capture but *trusts in-guest metadata* (a rootkit can doctor
/// `.reloc`), which is exactly why the paper's diff-based approach is more
/// robust. Returns the number of slots rewritten, or `None` if the image
/// has no parseable `.reloc` section.
pub fn normalize_with_reloc_table(
    image: &mut [u8],
    base: u64,
    parsed: &ParsedModule,
) -> Option<usize> {
    let rvas = reloc_rvas(image, parsed)?;
    let w = parsed.width.bytes();
    let mask = width_mask(parsed.width);
    let mut count = 0;
    for rva in rvas {
        let at = rva as usize;
        if at + w > image.len() {
            continue;
        }
        let abs = read_le(image, at, w);
        write_le(image, at, abs.wrapping_sub(base) & mask, w);
        count += 1;
    }
    Some(count)
}

/// The slot RVAs listed by `image`'s `.reloc` section, in table order, or
/// `None` when `parsed` finds no parseable `.reloc` section.
pub(crate) fn reloc_rvas(image: &[u8], parsed: &ParsedModule) -> Option<Vec<u32>> {
    let range = parsed.sections[parsed.find_section(".reloc")?]
        .data_range
        .clone();
    parse_reloc_section(&image[range])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds two "loaded" copies of `file` content: each slot (offset list)
    /// holds a file RVA; loading adds the base.
    fn load_pair(
        file: &[u8],
        slots: &[usize],
        base_a: u64,
        base_b: u64,
        width: AddressWidth,
    ) -> (Vec<u8>, Vec<u8>) {
        let w = width.bytes();
        let mut a = file.to_vec();
        let mut b = file.to_vec();
        for &s in slots {
            let rva = read_le(file, s, w);
            write_le(&mut a, s, rva.wrapping_add(base_a), w);
            write_le(&mut b, s, rva.wrapping_add(base_b), w);
        }
        (a, b)
    }

    fn sample_file() -> Vec<u8> {
        (0..600u32).map(|i| (i * 7 % 251) as u8).collect()
    }

    /// Algorithm 2 with a byte-at-a-time scan, kept as the reference the
    /// word-at-a-time [`adjust_rvas`] must reproduce exactly.
    fn adjust_rvas_bytewise(
        a: &mut [u8],
        b: &mut [u8],
        base_a: u64,
        base_b: u64,
        width: AddressWidth,
        slots: &mut Vec<u32>,
    ) -> AdjustStats {
        let w = width.bytes();
        let len = a.len().min(b.len());
        let mut stats = AdjustStats {
            bytes_scanned: len,
            residual_diffs: a.len().max(b.len()) - len,
            ..AdjustStats::default()
        };
        let mask = match width {
            AddressWidth::W32 => 0xFFFF_FFFFu64,
            AddressWidth::W64 => u64::MAX,
        };
        let (ba, bb) = (base_a.to_le_bytes(), base_b.to_le_bytes());
        let Some(offset) = (0..w).position(|i| ba[i] != bb[i]).map(|i| i + 1) else {
            stats.identical_bases = true;
            return stats;
        };
        let mut j = 0usize;
        while j < len {
            if a[j] == b[j] {
                j += 1;
                continue;
            }
            let slot = match (j + 1).checked_sub(offset) {
                Some(s) if s + w <= len => s,
                _ => {
                    stats.residual_diffs += 1;
                    j += 1;
                    continue;
                }
            };
            let rva_a = read_le(a, slot, w).wrapping_sub(base_a) & mask;
            let rva_b = read_le(b, slot, w).wrapping_sub(base_b) & mask;
            if rva_a == rva_b {
                write_le(a, slot, rva_a, w);
                write_le(b, slot, rva_b, w);
                slots.push(slot as u32);
                stats.slots_adjusted += 1;
                j = slot + w;
            } else {
                stats.residual_diffs += 1;
                j += 1;
            }
        }
        stats
    }

    #[test]
    fn clean_relocation_fully_reconciles() {
        let file = sample_file();
        let slots = [16usize, 100, 301, 590];
        for &s in &slots {
            assert!(s + 4 <= file.len());
        }
        let (mut a, mut b) = load_pair(&file, &slots, 0xF712_0000, 0xF7C4_3000, AddressWidth::W32);
        assert_ne!(a, b);
        let stats = adjust_rvas(&mut a, &mut b, 0xF712_0000, 0xF7C4_3000, AddressWidth::W32);
        assert_eq!(stats.residual_diffs, 0);
        assert_eq!(stats.slots_adjusted, slots.len());
        assert_eq!(a, b, "both sides reconciled to the same bytes");
        assert_eq!(a, file, "...which are the original file RVAs");
    }

    #[test]
    fn identical_bases_short_circuit() {
        let file = sample_file();
        let (mut a, mut b) = load_pair(&file, &[32], 0xF700_0000, 0xF700_0000, AddressWidth::W32);
        assert_eq!(a, b);
        let stats = adjust_rvas(&mut a, &mut b, 0xF700_0000, 0xF700_0000, AddressWidth::W32);
        assert!(stats.identical_bases);
        assert_eq!(stats.slots_adjusted, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn partial_base_prefix_overlap_backs_up_correctly() {
        // The paper's own example: bases sharing leading (low) bytes, so the
        // detected difference starts inside the slot and the scan must back
        // up. Bases 0x00CC20F8 vs 0x00CC9070 displayed big-endian in the
        // paper are 0xF820CC00 vs 0x7090CC00 numerically here; what matters
        // is sharing low-order bytes.
        let base_a = 0xF712_3400u64;
        let base_b = 0xF7A9_3400u64; // low two bytes equal → offset = 3
        let file = sample_file();
        let slots = [40usize, 222];
        let (mut a, mut b) = load_pair(&file, &slots, base_a, base_b, AddressWidth::W32);
        let stats = adjust_rvas(&mut a, &mut b, base_a, base_b, AddressWidth::W32);
        assert_eq!(stats.residual_diffs, 0);
        assert_eq!(stats.slots_adjusted, slots.len());
        assert_eq!(a, file);
        assert_eq!(b, file);
    }

    #[test]
    fn tampering_leaves_residual_diffs() {
        let file = sample_file();
        let slots = [64usize, 300];
        let (mut a, mut b) = load_pair(&file, &slots, 0xF712_0000, 0xF7C4_3000, AddressWidth::W32);
        // Single opcode change on one side (the §V.B.1 scenario).
        a[150] ^= 0x5A;
        let stats = adjust_rvas(&mut a, &mut b, 0xF712_0000, 0xF7C4_3000, AddressWidth::W32);
        assert!(stats.residual_diffs > 0, "tampering must not reconcile");
        assert_eq!(stats.slots_adjusted, 2, "real relocations still reconcile");
        assert_ne!(a, b, "tampered byte survives adjustment");
    }

    #[test]
    fn tampering_on_both_sides_at_same_offset_detected() {
        // Different malicious payloads at the same offset on both VMs: the
        // fake "RVAs" disagree, so the diff persists.
        let file = sample_file();
        let (mut a, mut b) = load_pair(&file, &[64], 0xF712_0000, 0xF7C4_3000, AddressWidth::W32);
        a[200] = 0xCC;
        b[200] = 0xCD;
        let stats = adjust_rvas(&mut a, &mut b, 0xF712_0000, 0xF7C4_3000, AddressWidth::W32);
        assert!(stats.residual_diffs > 0);
        assert_ne!(a[200], b[200]);
    }

    #[test]
    fn difference_at_section_edge_is_residual_not_panic() {
        let file = sample_file();
        let len = file.len();
        let (mut a, mut b) = load_pair(&file, &[], 0xF712_0000, 0xF7C4_3000, AddressWidth::W32);
        a[len - 1] ^= 0xFF; // too close to the edge to be a full slot
        let stats = adjust_rvas(&mut a, &mut b, 0xF712_0000, 0xF7C4_3000, AddressWidth::W32);
        assert_eq!(stats.residual_diffs, 1);
        assert_eq!(stats.slots_adjusted, 0);
    }

    #[test]
    fn sixty_four_bit_slots_reconcile() {
        let base_a = 0xFFFF_F880_0123_0000u64;
        let base_b = 0xFFFF_F880_0456_0000u64;
        let file = sample_file();
        let slots = [24usize, 480];
        let (mut a, mut b) = load_pair(&file, &slots, base_a, base_b, AddressWidth::W64);
        let stats = adjust_rvas(&mut a, &mut b, base_a, base_b, AddressWidth::W64);
        assert_eq!(stats.residual_diffs, 0);
        assert_eq!(stats.slots_adjusted, 2);
        assert_eq!(a, file);
    }

    #[test]
    fn slot_at_offset_zero_reconciles() {
        let file = sample_file();
        let (mut a, mut b) = load_pair(&file, &[0], 0xF712_0000, 0xF7C4_3000, AddressWidth::W32);
        let stats = adjust_rvas(&mut a, &mut b, 0xF712_0000, 0xF7C4_3000, AddressWidth::W32);
        assert_eq!(stats.slots_adjusted, 1);
        assert_eq!(stats.residual_diffs, 0);
        assert_eq!(a, file);
    }

    #[test]
    fn back_to_back_slots_reconcile() {
        // Two 4-byte slots with zero gap — the scan must hop exactly one
        // slot at a time.
        let file = sample_file();
        let slots = [100usize, 104, 108];
        let (mut a, mut b) = load_pair(&file, &slots, 0xF712_0000, 0xF7C4_3000, AddressWidth::W32);
        let stats = adjust_rvas(&mut a, &mut b, 0xF712_0000, 0xF7C4_3000, AddressWidth::W32);
        assert_eq!(stats.slots_adjusted, 3);
        assert_eq!(stats.residual_diffs, 0);
        assert_eq!(a, file);
        assert_eq!(b, file);
    }

    #[test]
    fn empty_sections_are_trivially_equal() {
        let mut a: Vec<u8> = Vec::new();
        let mut b: Vec<u8> = Vec::new();
        let stats = adjust_rvas(&mut a, &mut b, 0xF712_0000, 0xF7C4_3000, AddressWidth::W32);
        assert_eq!(stats.bytes_scanned, 0);
        assert_eq!(stats.slots_adjusted, 0);
        assert_eq!(stats.residual_diffs, 0);
    }

    #[test]
    fn unequal_lengths_scan_common_prefix() {
        let file = sample_file();
        let (mut a, mut b) = load_pair(&file, &[16], 0xF712_0000, 0xF7C4_3000, AddressWidth::W32);
        b.truncate(400);
        let stats = adjust_rvas(&mut a, &mut b, 0xF712_0000, 0xF7C4_3000, AddressWidth::W32);
        assert_eq!(stats.bytes_scanned, 400);
        assert_eq!(stats.slots_adjusted, 1);
        assert_eq!(
            stats.residual_diffs, 200,
            "truncated tail counts as residual"
        );
    }

    #[test]
    fn truncation_attack_is_residual_even_with_identical_bases() {
        // A rootkit that shrinks a section (e.g. hooks the size field so the
        // capture stops early) must not make the diff look clean. Identical
        // bases used to short-circuit before counting the tail; both return
        // paths must report it.
        let file = sample_file();
        let (mut a, mut b) = load_pair(&file, &[], 0xF700_0000, 0xF700_0000, AddressWidth::W32);
        b.truncate(512);
        let stats = adjust_rvas(&mut a, &mut b, 0xF700_0000, 0xF700_0000, AddressWidth::W32);
        assert!(stats.identical_bases);
        assert_eq!(
            stats.residual_diffs, 88,
            "600 - 512 tail bytes are residual"
        );

        // Same attack with differing bases takes the scan path: the clean
        // common prefix contributes nothing, the tail everything.
        let (mut a, mut b) = load_pair(&file, &[16], 0xF712_0000, 0xF7C4_3000, AddressWidth::W32);
        a.truncate(512);
        let stats = adjust_rvas(&mut a, &mut b, 0xF712_0000, 0xF7C4_3000, AddressWidth::W32);
        assert_eq!(stats.slots_adjusted, 1);
        assert_eq!(stats.residual_diffs, 88);
    }

    /// Lays normalized bytes out as a loaded section: each slot, in order,
    /// rebased by `base`.
    fn rebase(normalized: &[u8], slots: &[u32], base: u64, width: AddressWidth) -> Vec<u8> {
        let w = width.bytes();
        let mut out = normalized.to_vec();
        for &s in slots {
            let v = read_le(&out, s as usize, w).wrapping_add(base);
            write_le(&mut out, s as usize, v, w);
        }
        out
    }

    #[test]
    fn grouped_closed_form_matches_the_bytewise_reference() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x6A0B_2E1A);
        let (mut differing, mut identical) = (0usize, 0usize);
        for case in 0..4000 {
            let width = if rng.random_bool(0.5) {
                AddressWidth::W64
            } else {
                AddressWidth::W32
            };
            let w = width.bytes();
            let len = rng.random_range(0..400usize);
            let normalized: Vec<u8> = (0..len).map(|_| rng.random()).collect();
            // Half the cases space slots at least w apart; the other half
            // may pack them closer, where the closed form does not hold.
            let min_gap = if rng.random_bool(0.5) { w } else { 1 };
            let mut slots = Vec::new();
            let mut at = rng.random_range(0..2 * w);
            while at + w <= len {
                slots.push(at as u32);
                at += rng.random_range(min_gap..=3 * w);
            }
            // The bases agree on their low `shared` bytes and differ in the
            // next one; sharing all w bytes leaves them equal there (a
            // 32-bit pair may still differ above its word).
            let base_a = rng.random::<u64>() & width_mask(width);
            let shared = rng.random_range(0..=w);
            let base_b = if shared == w {
                base_a ^ (u64::from(rng.random::<u32>()) << 32) & !width_mask(width)
            } else {
                base_a ^ (rng.random_range(1..=0xFFu64) << (8 * shared))
            };
            if !slots_are_disjoint(&slots, len, width) {
                continue;
            }
            let a = rebase(&normalized, &slots, base_a, width);
            let b = rebase(&normalized, &slots, base_b, width);
            let (mut ra, mut rb, mut log) = (a.clone(), b.clone(), Vec::new());
            let reference = adjust_rvas_bytewise(&mut ra, &mut rb, base_a, base_b, width, &mut log);
            let closed = adjust_grouped(slots.len(), len, base_a, base_b, width);
            let ctx = format!("case {case}: {width:?}, shared {shared}, slots {slots:?}");
            assert_eq!(closed, reference, "{ctx}");
            if closed.identical_bases {
                identical += 1;
                assert!(log.is_empty(), "{ctx}");
                assert_eq!(ra, a, "{ctx}");
            } else {
                differing += 1;
                assert_eq!(log, slots, "{ctx}");
                assert_eq!(ra, normalized, "{ctx}");
            }
            assert_eq!(ra, rb, "{ctx}");
            // Each side normalizes back to the shared bytes: the grouping
            // key. Any one changed byte of `b` breaks that.
            let same = |y: &[u8], by| {
                let segments = differing_segments(&a, base_a, y, by, &slots, width).next();
                let same = same_normalized(&a, base_a, y, by, &slots, width);
                assert_eq!(same, segments.is_none(), "{ctx}");
                same
            };
            assert!(same(&normalized, 0), "{ctx}");
            assert!(same(&b, base_b), "{ctx}");
            if len > 0 {
                let mut t = b.clone();
                t[case % len] ^= 1 << (case % 8);
                assert!(!same(&t, base_b), "{ctx}");
            }
        }
        assert!(
            differing > 1000 && identical > 200,
            "too few admitted cases: {differing} differing, {identical} identical"
        );
    }

    /// A rewrite that backs up into the slot rewritten just before it:
    /// the bases first differ at byte 2, so a difference right after the
    /// slot at 8 backs up to 10 and reads bytes 10–11 as rewritten. Those
    /// bytes then agree, byte 12 differs by the rewrite key, and slot 10
    /// reconciles; read as loaded, they would differ and leave a
    /// residual. The read-only pass must read them through its overlay,
    /// and the segmented pass (slot 8's segment equal, the gap after it
    /// not) from the slot it rewrote in closed form.
    #[test]
    fn rewrite_backing_into_the_previous_slot_reads_its_rewritten_bytes() {
        let (base_a, base_b, w) = (0xF712_0000u64, 0xF700_0000u64, AddressWidth::W32);
        let file: Vec<u8> = (0..32u8).map(|i| i.wrapping_mul(29)).collect();
        let slots = [8u32, 20];
        let (a, mut b) = load_pair(&file, &[8, 20], base_a, base_b, w);
        b[12] = a[12].wrapping_sub(0x12);
        let (mut ra, mut rb) = (a.clone(), b.clone());
        let mut reference_log = Vec::new();
        let reference =
            adjust_rvas_bytewise(&mut ra, &mut rb, base_a, base_b, w, &mut reference_log);
        assert_eq!(
            reference_log,
            [8, 10, 20],
            "slot 10 reconciles over slot 8's bytes"
        );

        let mut log = Vec::new();
        assert_eq!(
            adjust_read_only(&a, &b, base_a, base_b, w, &mut log),
            reference
        );
        assert_eq!(log, reference_log);
        assert_eq!(adjusted_differ(&a, &b, &log, w), ra != rb);

        let differing: Vec<u32> = differing_segments(&a, base_a, &b, base_b, &slots, w).collect();
        assert_eq!(differing, [1], "only the gap after slot 8 differs");
        let segmented = adjust_segmented(
            &a,
            &b,
            base_a,
            base_b,
            w,
            (&slots, &differing),
            &mut Default::default(),
        );
        assert_eq!(segmented, Some((reference, ra != rb)));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// For arbitrary content, slot placement and distinct bases,
            /// Algorithm 2 recovers the original file bytes exactly.
            #[test]
            fn recovers_file_image(
                file in proptest::collection::vec(any::<u8>(), 64..2048),
                base_sel in 0u64..0xFFFF,
                wide in proptest::bool::ANY,
            ) {
                let width = if wide { AddressWidth::W64 } else { AddressWidth::W32 };
                let w = width.bytes();
                let base_a = 0xF700_0000u64 + (base_sel << 12);
                let base_b = 0xF700_0000u64 + (((base_sel * 7 + 13) & 0xFFFF) << 12);
                prop_assume!(base_a != base_b);
                let slots: Vec<usize> = (0..file.len().saturating_sub(w)).step_by(97).collect();
                let (mut a, mut b) = load_pair(&file, &slots, base_a, base_b, width);
                let stats = adjust_rvas(&mut a, &mut b, base_a, base_b, width);
                prop_assert_eq!(stats.residual_diffs, 0);
                prop_assert_eq!(&a, &file);
                prop_assert_eq!(&b, &file);
            }

            /// A single tampered byte (outside relocation slots) always
            /// survives adjustment as a difference.
            #[test]
            fn tampering_survives(
                file in proptest::collection::vec(any::<u8>(), 64..1024),
                tamper_at in 0usize..1024,
                flip in 1u8..=255,
            ) {
                let base_a = 0xF712_0000u64;
                let base_b = 0xF7C4_3000u64;
                let slots: Vec<usize> = (0..file.len().saturating_sub(4)).step_by(151).collect();
                let (mut a, mut b) = load_pair(&file, &slots, base_a, base_b, AddressWidth::W32);
                let at = tamper_at % file.len();
                // Keep the tamper clear of genuine slots so the scenario is
                // "pure code modification".
                prop_assume!(slots.iter().all(|&s| at < s || at >= s + 4));
                a[at] ^= flip;
                adjust_rvas(&mut a, &mut b, base_a, base_b, AddressWidth::W32);
                prop_assert_ne!(&a, &b);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// The word-at-a-time scan finds exactly the slots, residuals
            /// and rewrites of the byte-at-a-time reference: dense and
            /// back-to-back slots (`step` ≤ 16), bases sharing 0 to w − 1
            /// low bytes (so the scan backs up into slots that overlap
            /// earlier rewrites) or all w (identical bases), tampered bytes
            /// on either side, unequal lengths and both widths.
            #[test]
            fn word_scan_matches_the_bytewise_reference(
                file in proptest::collection::vec(any::<u8>(), 0..600),
                wide in proptest::bool::ANY,
                base_raw in any::<u64>(),
                shared in 0usize..9,
                flip in 1u64..=0xFF,
                start in 0usize..24,
                step in 1usize..=16,
                tampers in proptest::collection::vec(any::<u64>(), 0..6),
                cut_a in 0usize..48,
                cut_b in 0usize..48,
            ) {
                let width = if wide { AddressWidth::W64 } else { AddressWidth::W32 };
                let w = width.bytes();
                let mask = if wide { u64::MAX } else { 0xFFFF_FFFF };
                let base_a = base_raw & mask;
                // The bases agree on their low `shared` bytes and differ in
                // the next one; sharing all w bytes makes them identical.
                let shared = shared % (w + 1);
                let base_b = if shared == w {
                    base_a
                } else {
                    base_a ^ (flip << (8 * shared))
                };
                let slots: Vec<usize> =
                    (start..file.len().saturating_sub(w)).step_by(step).collect();
                let (mut a, mut b) = load_pair(&file, &slots, base_a, base_b, width);
                for t in &tampers {
                    let side = if t & 1 == 0 { &mut a } else { &mut b };
                    if !side.is_empty() {
                        let at = (t >> 9) as usize % side.len();
                        side[at] ^= ((t >> 1) as u8).max(1);
                    }
                }
                // Cuts of 24 or more trim the tail, so about half the cases
                // keep equal lengths.
                a.truncate(a.len().saturating_sub(cut_a.saturating_sub(24)));
                b.truncate(b.len().saturating_sub(cut_b.saturating_sub(24)));
                let (mut ra, mut rb) = (a.clone(), b.clone());
                let mut reference_log = Vec::new();
                let (oa, ob) = (a.clone(), b.clone());
                let stats = adjust_rvas(&mut a, &mut b, base_a, base_b, width);
                let reference = adjust_rvas_bytewise(
                    &mut ra, &mut rb, base_a, base_b, width, &mut reference_log,
                );
                prop_assert_eq!(stats, reference);
                prop_assert_eq!(&a, &ra);
                prop_assert_eq!(&b, &rb);
                // The read-only pass, its log and the adjusted-bytes verdict.
                let mut log = Vec::new();
                let read_only = adjust_read_only(&oa, &ob, base_a, base_b, width, &mut log);
                prop_assert_eq!(read_only, reference);
                prop_assert_eq!(log.len(), stats.slots_adjusted);
                prop_assert_eq!(&log, &reference_log);
                prop_assert_eq!(adjusted_differ(&oa, &ob, &log, width), ra != rb);
            }

            /// The segmented pass reproduces the byte-at-a-time reference's
            /// statistics, and says the adjusted sections differ exactly
            /// when the reference's do: two sections over one disjoint slot
            /// list (gaps of 0 to 23 bytes), the second's normalized bytes
            /// edited by flipped bytes (in gaps and inside slots) and
            /// spliced-in bytes that shift the rest, a small byte alphabet
            /// so rewrites also land inside differing stretches, both
            /// widths, bases sharing 0 to w low bytes (all w: no pass).
            #[test]
            fn segmented_pass_matches_the_bytewise_reference(
                file in proptest::collection::vec(any::<u8>(), 0..900),
                alphabet in 1u8..=255,
                wide in proptest::bool::ANY,
                base_raw in any::<u64>(),
                shared in 0usize..9,
                flip in 1u64..=0xFF,
                gaps in proptest::collection::vec(0usize..24, 0..120),
                edits in proptest::collection::vec(any::<u64>(), 0..5),
            ) {
                let width = if wide { AddressWidth::W64 } else { AddressWidth::W32 };
                let w = width.bytes();
                let mask = if wide { u64::MAX } else { 0xFFFF_FFFF };
                let base_a = base_raw & mask;
                let shared = shared % (w + 1);
                let base_b = if shared == w { base_a } else { base_a ^ (flip << (8 * shared)) };
                let file_a: Vec<u8> = file.iter().map(|&v| v % alphabet).collect();
                let mut slots = Vec::new();
                let mut at = gaps.first().copied().unwrap_or(0);
                for gap in gaps.iter().skip(1) {
                    if at + w > file_a.len() {
                        break;
                    }
                    slots.push(at as u32);
                    at += w + gap;
                }
                let mut file_b = file_a.clone();
                for e in &edits {
                    if file_b.is_empty() {
                        break;
                    }
                    let pos = (e >> 8) as usize % file_b.len();
                    if e & 3 == 0 {
                        let len = file_b.len();
                        let insert = [(e >> 40) as u8 % alphabet; 3];
                        file_b.splice(pos..pos, insert[..1 + (e >> 2) as usize % 3].iter().copied());
                        file_b.truncate(len);
                    } else {
                        file_b[pos] ^= ((e >> 48) as u8).max(1);
                    }
                }
                let load = |file: &[u8], base: u64| {
                    let mut v = file.to_vec();
                    for &s in &slots {
                        let s = s as usize;
                        write_le(&mut v, s, read_le(file, s, w).wrapping_add(base) & mask, w);
                    }
                    v
                };
                let (a, b) = (load(&file_a, base_a), load(&file_b, base_b));
                let differing: Vec<u32> =
                    differing_segments(&a, base_a, &b, base_b, &slots, width).collect();
                let got = adjust_segmented(
                    &a, &b, base_a, base_b, width, (&slots, &differing), &mut Vec::new(),
                );
                let (mut ra, mut rb) = (a.clone(), b.clone());
                let reference =
                    adjust_rvas_bytewise(&mut ra, &mut rb, base_a, base_b, width, &mut Vec::new());
                if shared == w {
                    prop_assert!(got.is_none());
                } else {
                    prop_assert_eq!(got, Some((reference, ra != rb)));
                }
            }

            /// Code shifted by an inserted instruction, as the opcode
            /// replacement leaves it: past the edit nearly every byte
            /// differs, so whole blocks settle as residuals. A small byte
            /// alphabet makes byte pairs that differ by the rewrite key
            /// common, so blocks also stop short and rewrites land inside
            /// the shifted stretch. Both widths, bases sharing 0 to w − 1
            /// low bytes, either side shifted.
            #[test]
            fn shifted_code_matches_the_bytewise_reference(
                file in proptest::collection::vec(any::<u8>(), 0..900),
                alphabet in 1u8..=255,
                wide in proptest::bool::ANY,
                base_raw in any::<u64>(),
                shared in 0usize..8,
                flip in 1u64..=0xFF,
                step in 4usize..=40,
                edit in any::<u16>(),
                insert in proptest::collection::vec(any::<u8>(), 1..4),
                shift_b in proptest::bool::ANY,
            ) {
                let width = if wide { AddressWidth::W64 } else { AddressWidth::W32 };
                let w = width.bytes();
                let mask = if wide { u64::MAX } else { 0xFFFF_FFFF };
                let base_a = base_raw & mask;
                let base_b = base_a ^ (flip << (8 * (shared % w)));
                let file: Vec<u8> = file.iter().map(|&v| v % alphabet).collect();
                let slots: Vec<usize> = (0..file.len().saturating_sub(w)).step_by(step).collect();
                let (a, b) = load_pair(&file, &slots, base_a, base_b, width);
                // Splice `insert` in at `edit` and drop as many trailing
                // bytes, so the lengths stay equal.
                let splice = |v: &[u8]| {
                    let at = usize::from(edit) % (v.len() + 1);
                    let mut out = v[..at].to_vec();
                    out.extend_from_slice(&insert);
                    out.extend_from_slice(&v[at..]);
                    out.truncate(v.len());
                    out
                };
                let (mut a, mut b) = if shift_b { (a, splice(&b)) } else { (splice(&a), b) };
                let (mut ra, mut rb) = (a.clone(), b.clone());
                let (oa, ob) = (a.clone(), b.clone());
                let mut reference_log = Vec::new();
                let stats = adjust_rvas(&mut a, &mut b, base_a, base_b, width);
                let reference = adjust_rvas_bytewise(
                    &mut ra, &mut rb, base_a, base_b, width, &mut reference_log,
                );
                prop_assert_eq!(stats, reference);
                prop_assert_eq!(&a, &ra);
                prop_assert_eq!(&b, &rb);
                let mut log = Vec::new();
                let read_only = adjust_read_only(&oa, &ob, base_a, base_b, width, &mut log);
                prop_assert_eq!(read_only, reference);
                prop_assert_eq!(&log, &reference_log);
                prop_assert_eq!(adjusted_differ(&oa, &ob, &log, width), ra != rb);
            }
        }
    }
}
