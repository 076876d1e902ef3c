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
//! exactly the bytes a byte-by-byte loop would.
//!
//! The paper's Algorithm 2 line 22 reads `j ← j − offset + 1 − 4`, which
//! would move the cursor backwards and never terminate; it is a typo for
//! advancing *past* the 4-byte slot, which is what this implementation does.
//!
//! If the two bases are identical (possible: the allocator may coincide),
//! no adjustment is needed or attempted — the images are directly
//! comparable (`IsDifferenceExist = 0` in the paper).

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
pub fn adjust_rvas(
    a: &mut [u8],
    b: &mut [u8],
    base_a: u64,
    base_b: u64,
    width: AddressWidth,
) -> AdjustStats {
    adjust_rvas_logged(a, b, base_a, base_b, width, &mut Vec::new())
}

/// [`adjust_rvas`] that also appends each reconciled slot's offset to
/// `slots`, in rewrite order.
///
/// Each rewrite reads one side's own (possibly already rewritten) buffer
/// and subtracts that side's own base, so either side's adjusted bytes are
/// a function of its original bytes, its base, `width` and this log alone,
/// whatever the other side held. The checker keys its per-capture digest
/// memo on that. Offsets fit in `u32`: captures are capped at
/// [`crate::error::MAX_MODULE_SIZE`].
pub(crate) fn adjust_rvas_logged(
    a: &mut [u8],
    b: &mut [u8],
    base_a: u64,
    base_b: u64,
    width: AddressWidth,
    slots: &mut Vec<u32>,
) -> AdjustStats {
    let w = width.bytes();
    let len = a.len().min(b.len());
    // Bytes past the common prefix cannot be scanned, let alone reconciled;
    // count the whole truncated tail as residual so mismatched-length
    // captures can never under-report.
    let tail = a.len().max(b.len()) - len;
    let mut stats = AdjustStats {
        bytes_scanned: len,
        residual_diffs: tail,
        ..AdjustStats::default()
    };
    // Mask RVAs to the guest word size (32-bit arithmetic wraps mod 2^32).
    let mask = match width {
        AddressWidth::W32 => 0xFFFF_FFFFu64,
        AddressWidth::W64 => u64::MAX,
    };

    // Lines 1–9: offset of the first differing base-address byte.
    let ba = base_a.to_le_bytes();
    let bb = base_b.to_le_bytes();
    let mut offset = 0usize;
    let mut difference_exists = false;
    for i in 0..w {
        offset += 1;
        if ba[i] != bb[i] {
            difference_exists = true;
            break;
        }
    }
    if !difference_exists {
        stats.identical_bases = true;
        return stats;
    }

    // Lines 11–23: scan, back up to the slot start, reconcile.
    let mut j = 0usize;
    while let Some(d) = next_difference(a, b, j, len) {
        j = d;
        // Slot start: j − offset + 1 (the paper's line 13/14 index).
        let slot = match (j + 1).checked_sub(offset) {
            Some(s) if s + w <= len => s,
            // Difference too close to a section edge to hold an address.
            _ => {
                stats.residual_diffs += 1;
                j += 1;
                continue;
            }
        };
        let abs_a = read_le(a, slot, w);
        let abs_b = read_le(b, slot, w);
        let rva_a = abs_a.wrapping_sub(base_a) & mask;
        let rva_b = abs_b.wrapping_sub(base_b) & mask;
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
    let reloc_idx = parsed.find_section(".reloc")?;
    let range = parsed.sections[reloc_idx].data_range.clone();
    let rvas = parse_reloc_section(&image[range])?;
    let w = parsed.width.bytes();
    let mask = match parsed.width {
        AddressWidth::W32 => 0xFFFF_FFFFu64,
        AddressWidth::W64 => u64::MAX,
    };
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
    /// word-at-a-time [`adjust_rvas_logged`] must reproduce exactly.
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
                let mut log = Vec::new();
                let mut reference_log = Vec::new();
                let stats = adjust_rvas_logged(&mut a, &mut b, base_a, base_b, width, &mut log);
                let reference = adjust_rvas_bytewise(
                    &mut ra, &mut rb, base_a, base_b, width, &mut reference_log,
                );
                prop_assert_eq!(stats, reference);
                prop_assert_eq!(log.len(), stats.slots_adjusted);
                prop_assert_eq!(&log, &reference_log);
                prop_assert_eq!(&a, &ra);
                prop_assert_eq!(&b, &rb);
            }
        }
    }
}
