//! Integrity-Checker — per-part MD5 hashing and pairwise comparison.
//!
//! For a pair of VMs, every header part is hashed directly; executable
//! section data is first run through Algorithm 2 ([`crate::rva`]) to undo
//! relocation, and the paper then hashes it. The set of parts that
//! disagree is the comparison outcome — e.g. the paper's §V.B.4 experiment
//! reports mismatches in `IMAGE_NT_HEADER`, `IMAGE_OPTIONAL_HEADER`, all
//! `SECTION_HEADER`s and `.text`.
//!
//! Each capture memoizes its [`canonical_form`], so the work behind it is
//! done once per capture rather than once per pair or per round. Across
//! captures, one scan groups executable sections by normalized bytes and
//! slot list ([`SectionGroups`]), in place, for both compare strategies. A
//! section pair within a group takes Algorithm 2's closed form, two groups
//! over one slot list scan only the segments where they differ, and any
//! other pair is decided by its adjusted bytes, read in place. A group's
//! canonical digest is streamed once from its first section; a section
//! whose `.reloc` entries are not exactly its slots is hashed from a
//! normalized copy of its image. None of this changes what a comparison or
//! a canonical form returns, or what either charges to a ledger.
#![cfg_attr(not(test), warn(clippy::too_many_lines))]

use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use mc_pe::AddressWidth;
use mc_vmi::VmiSession;

use crate::digest::{digest, digest_pieces, DigestAlgo, PartDigest};
use crate::error::CheckError;
use crate::parts::{ExecSection, ModuleParts, PartId};
use crate::searcher::ModuleImage;

/// A captured module plus its parsed decomposition and cached header
/// hashes. The expensive artifacts are computed once per VM and reused for
/// every pairwise comparison.
///
/// The capture also memoizes its [`canonical_form`] on first use, so a
/// capture served again from a cache (the same `Arc`) is normalized and
/// hashed only once. The memo is derived from the fields as they stood
/// when it was filled: [`Clone`] starts the copy with an empty memo, so the
/// way to derive a modified capture is to clone it and edit the clone.
#[derive(Debug)]
pub struct ExtractedModule {
    /// The captured image.
    pub image: ModuleImage,
    /// Algorithm 1 output.
    pub parts: ModuleParts,
    /// Cached hashes of all non-executable parts (headers and section
    /// headers), pairwise-invariant.
    pub header_hashes: Vec<(PartId, PartDigest)>,
    /// Hash algorithm used for every part of this capture.
    pub algo: DigestAlgo,
    /// Memoized [`canonical_form`] outcome, with the `.reloc` length its
    /// ledger charge reads; see the type docs.
    pub(crate) canonical: OnceLock<Option<(CanonicalForm, usize)>>,
}

impl Clone for ExtractedModule {
    fn clone(&self) -> Self {
        ExtractedModule {
            image: self.image.clone(),
            parts: self.parts.clone(),
            header_hashes: self.header_hashes.clone(),
            algo: self.algo,
            canonical: OnceLock::new(),
        }
    }
}

impl ExtractedModule {
    /// Parses and pre-hashes a captured image with the paper's MD5.
    pub fn new(image: ModuleImage) -> Result<Self, CheckError> {
        Self::with_algo(image, DigestAlgo::Md5)
    }

    /// Parses and pre-hashes a captured image under `algo`.
    pub fn with_algo(image: ModuleImage, algo: DigestAlgo) -> Result<Self, CheckError> {
        let parts = ModuleParts::extract(&image)?;
        let mut header_hashes: Vec<(PartId, PartDigest)> = parts
            .parts
            .iter()
            .filter(|p| !p.is_exec_data)
            .map(|p| (p.id.clone(), digest(algo, &image.bytes[p.range.clone()])))
            .collect();
        // Sorted by part id so pairwise comparison is a linear merge.
        header_hashes.sort_by(|x, y| x.0.cmp(&y.0));
        Ok(ExtractedModule {
            image,
            parts,
            header_hashes,
            algo,
            canonical: OnceLock::new(),
        })
    }

    /// Total image length (cost accounting).
    pub fn len(&self) -> usize {
        self.image.bytes.len()
    }

    /// True when the image is empty (never the case for parsed modules).
    pub fn is_empty(&self) -> bool {
        self.image.bytes.is_empty()
    }
}

/// Outcome of comparing one module across two VMs.
#[derive(Clone, Debug)]
pub struct PairOutcome {
    /// The two VM names compared.
    pub vms: (String, String),
    /// Parts whose hashes disagreed (empty = full match).
    pub mismatched: Vec<PartId>,
    /// Relocation slots reconciled across all executable sections.
    pub slots_adjusted: usize,
    /// Unreconciled byte differences (tampering indicator).
    pub residual_diffs: usize,
}

impl PairOutcome {
    /// True if every part matched.
    pub fn matches(&self) -> bool {
        self.mismatched.is_empty()
    }
}

/// Reusable scratch for the pairwise path: the log of slots Algorithm 2
/// rewrote in one section pair. Both sections are read in place, so the
/// log is the only working memory a comparison needs; keeping it in a
/// scratch arena lets a matrix sweep run allocation-free after the first
/// pair.
#[derive(Clone, Debug, Default)]
pub struct PairScratch {
    slots: Vec<u32>,
}

impl PairScratch {
    /// Creates an empty arena (the log grows to the longest one seen).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Compares one module extracted from two VMs (the paper's per-pair unit of
/// work). Charges hashing/diffing cost to `ledger` when provided.
///
/// Both captures must have been hashed under the same digest algorithm;
/// a mismatch is a typed error (digests under different algorithms are
/// incomparable and would otherwise flag every section).
pub fn compare_pair(
    a: &ExtractedModule,
    b: &ExtractedModule,
    ledger: Option<&mut VmiSession<'_>>,
) -> Result<PairOutcome, CheckError> {
    compare_pair_with(a, b, ledger, &mut PairScratch::new())
}

/// The index in `other` of the counterpart of `secs[i]`: the section with
/// the same name and the same occurrence among sections of that name, so a
/// second `.text` pairs with the other side's second `.text` or with none.
fn counterpart(secs: &[ExecSection], i: usize, other: &[ExecSection]) -> Option<usize> {
    let name = &secs[i].name;
    let occurrence = secs[..i].iter().filter(|s| s.name == *name).count();
    other
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == *name)
        .nth(occurrence)
        .map(|(k, _)| k)
}

/// [`compare_pair`] with caller-provided scratch, for matrix sweeps that
/// reuse one arena across many pairs.
///
/// Each executable-section pair is decided by its adjusted bytes: the pair
/// matches when the sections have one length and differ only inside slots
/// Algorithm 2 rewrote. That is exactly when their adjusted copies would
/// hash equal, barring a digest collision. The ledger is charged for
/// diffing and hashing both sections, as the paper's pass does.
pub fn compare_pair_with(
    a: &ExtractedModule,
    b: &ExtractedModule,
    ledger: Option<&mut VmiSession<'_>>,
    scratch: &mut PairScratch,
) -> Result<PairOutcome, CheckError> {
    compare_pair_in(a, b, ledger, scratch, None)
}

/// One scan's executable sections grouped by width, in-section `.reloc`
/// slot list and normalized bytes: for each capture, in scan order, what
/// its `.reloc` table makes of it.
///
/// Two sections in one group are each their group's normalized bytes with
/// every slot rebased by their own base, so Algorithm 2 between them has a
/// closed form ([`crate::rva::adjust_grouped`]). Two groups over the same
/// width and slot list differ on some segments between slots only, and
/// Algorithm 2 between their members scans just those
/// ([`crate::rva::adjust_segmented`]); the segments are found once per
/// pair of groups. The `.reloc` table is only a hint: it picks which bytes
/// are normalized, and the group is decided by the bytes. A doctored or
/// stripped table changes a capture's key, so it lands in a group of its
/// own or in none, and its pairs run the full Algorithm 2 pass.
#[derive(Debug)]
pub(crate) struct SectionGroups<'a> {
    /// Per capture: `None` when ungrouped or without a parseable table.
    tables: Vec<Option<TableView>>,
    keys: Vec<GroupKey<'a>>,
    /// The differing segments of pairs of groups over one slot list,
    /// filled on first use.
    differing: Mutex<Vec<GroupPairSegments>>,
}

/// One capture as its `.reloc` table sees it: the `.reloc` length, the
/// in-image entries (duplicates included, the count normalization
/// rewrites) and each executable section's group and exactness.
#[derive(Debug)]
struct TableView {
    reloc_len: usize,
    slots_normalized: usize,
    sections: Vec<Option<(usize, bool)>>,
}

/// Two groups (lower index first) and the segments of their shared slot
/// list on which their normalized bytes differ.
type GroupPairSegments = ((usize, usize), Arc<[u32]>);

/// A group's key: the width, the slot list and the first section's
/// bytes and base, which normalize to the group's bytes.
#[derive(Debug)]
struct GroupKey<'a> {
    width: AddressWidth,
    slots: Vec<u32>,
    section: &'a [u8],
    base: u64,
    /// The group's digest under the first algorithm asked for.
    digest: OnceLock<PartDigest>,
}

/// How Algorithm 2 runs between two sections of one scan.
enum Grouping<'g> {
    /// One group: the closed form over this many slots.
    Same(usize),
    /// Two groups over one slot list: the pass over the segments where
    /// their normalized bytes differ.
    Segments(&'g [u32], Arc<[u32]>),
}

impl<'a> SectionGroups<'a> {
    /// Groups the executable sections of the captures given as `Some`;
    /// a `None` keeps its position ungrouped. A section has no group when
    /// its capture has no parseable `.reloc` table or when two of its
    /// slots lie closer than one address width. Copies no section bytes:
    /// each lookup normalizes both sides in place as it compares.
    pub(crate) fn build(captures: impl IntoIterator<Item = Option<&'a ExtractedModule>>) -> Self {
        let mut keys: Vec<GroupKey<'a>> = Vec::new();
        let tables = captures.into_iter().map(|m| table_view(m?, &mut keys));
        SectionGroups {
            tables: tables.collect(),
            keys,
            differing: Mutex::default(),
        }
    }

    /// The group of section `s` of capture `i`, and whether it is exact.
    fn section(&self, i: usize, s: usize) -> Option<(usize, bool)> {
        let table = self.tables.get(i)?.as_ref()?;
        table.sections.get(s).copied().flatten()
    }

    /// The `algo` digest of group `g`'s normalized bytes, streamed once per
    /// scan (again only for a second algorithm, which no pool scan mixes).
    fn digest(&self, g: usize, algo: DigestAlgo) -> PartDigest {
        let k = &self.keys[g];
        let feed = |f: &mut dyn FnMut(&[u8])| {
            crate::rva::feed_normalized(k.section, k.base, &k.slots, k.width, f);
        };
        match *k.digest.get_or_init(|| digest_pieces(algo, feed)) {
            memo if memo.algo() == algo => memo,
            _ => digest_pieces(algo, feed),
        }
    }

    /// How section `ia` of capture `i` and section `ib` of capture `j`
    /// compare, when both are in groups that allow a shortcut.
    fn grouping(&self, i: usize, ia: usize, j: usize, ib: usize) -> Option<Grouping<'_>> {
        let (ga, _) = self.section(i, ia)?;
        let (gb, _) = self.section(j, ib)?;
        let (ka, kb) = (&self.keys[ga], &self.keys[gb]);
        if ga == gb {
            return Some(Grouping::Same(ka.slots.len()));
        }
        if ka.width != kb.width || ka.slots != kb.slots || ka.section.len() != kb.section.len() {
            return None;
        }
        let pair = (ga.min(gb), ga.max(gb));
        let lock = || {
            self.differing
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
        };
        let found = lock()
            .iter()
            .find(|(p, _)| *p == pair)
            .map(|(_, d)| d.clone());
        let segments = found.unwrap_or_else(|| {
            let segments: Arc<[u32]> = crate::rva::differing_segments(
                ka.section, ka.base, kb.section, kb.base, &ka.slots, ka.width,
            )
            .collect();
            lock().push((pair, segments.clone()));
            segments
        });
        Some(Grouping::Segments(&ka.slots, segments))
    }
}

/// `m` as its `.reloc` table sees it, parsed as
/// [`crate::rva::normalize_with_reloc_table`] parses it, with its
/// executable sections grouped into `keys`; `None` without a parseable
/// table.
fn table_view<'a>(m: &'a ExtractedModule, keys: &mut Vec<GroupKey<'a>>) -> Option<TableView> {
    let parsed = mc_pe::parser::ParsedModule::parse_memory(&m.image.bytes).ok()?;
    let reloc_len = parsed.sections[parsed.find_section(".reloc")?]
        .data_range
        .len();
    let mut rvas = crate::rva::reloc_rvas(&m.image.bytes, &parsed)?;
    let w = parsed.width.bytes();
    rvas.sort_unstable();
    let slots_normalized = rvas.partition_point(|&r| r as usize + w <= m.image.bytes.len());
    let sections = m
        .parts
        .exec_sections
        .iter()
        .map(|s| {
            let (group, exact) = group_of(m, s.range.clone(), &rvas, keys)?;
            // Normalization rewrites slots at the parsed width.
            Some((group, exact && parsed.width == m.parts.width))
        })
        .collect();
    Some(TableView {
        reloc_len,
        slots_normalized,
        sections,
    })
}

/// The group of the executable section at `range` of `m`, whose image
/// carries the sorted slot RVAs `rvas` (duplicates kept): an existing group
/// when one has the same key, else a new one keyed by this section. Also
/// whether the section is exact: the entries touching it are its slots,
/// each listed once, so normalizing the image rewrites just those.
fn group_of<'a>(
    m: &'a ExtractedModule,
    range: Range<usize>,
    rvas: &[u32],
    keys: &mut Vec<GroupKey<'a>>,
) -> Option<(usize, bool)> {
    let width = m.parts.width;
    let w = width.bytes();
    let touching = &rvas[rvas.partition_point(|&r| r as usize + w <= range.start)
        ..rvas.partition_point(|&r| (r as usize) < range.end)];
    // The slots lying fully inside the section, as section offsets.
    let mut slots: Vec<u32> = touching
        .iter()
        .map(|&r| r as usize)
        .filter(|&r| r >= range.start && r + w <= range.end)
        .map(|r| (r - range.start) as u32)
        .collect();
    slots.dedup();
    let exact = slots.len() == touching.len();
    let section = m.image.bytes.get(range)?;
    if !crate::rva::slots_are_disjoint(&slots, section.len(), width) {
        return None;
    }
    let base = m.image.base;
    let hit = keys.iter().position(|k| {
        k.width == width
            && k.slots == slots
            && crate::rva::same_normalized(section, base, k.section, k.base, &slots, width)
    });
    let group = hit.unwrap_or_else(|| {
        keys.push(GroupKey {
            width,
            slots,
            section,
            base,
            digest: OnceLock::new(),
        });
        keys.len() - 1
    });
    Some((group, exact))
}

/// The header parts on which `ha` and `hb` disagree. Both are sorted by
/// part id at extraction, so one linear merge aligns them; a part present
/// on one side only (e.g. a section added by DLL injection changed the
/// section count) is a mismatch by construction.
fn header_mismatches(ha: &[(PartId, PartDigest)], hb: &[(PartId, PartDigest)]) -> Vec<PartId> {
    let mut mismatched = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    while i < ha.len() && j < hb.len() {
        match ha[i].0.cmp(&hb[j].0) {
            std::cmp::Ordering::Equal => {
                if ha[i].1 != hb[j].1 {
                    mismatched.push(ha[i].0.clone());
                }
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                mismatched.push(ha[i].0.clone());
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                mismatched.push(hb[j].0.clone());
                j += 1;
            }
        }
    }
    mismatched.extend(ha[i..].iter().chain(&hb[j..]).map(|(id, _)| id.clone()));
    mismatched
}

/// [`compare_pair_with`], within one scan when `groups` holds the scan's
/// section grouping with the positions of `a` and `b` in it. A section pair
/// in one group takes Algorithm 2's closed form, and a pair of two groups
/// over one slot list runs [`crate::rva::adjust_segmented`]. Every other
/// section pair runs [`crate::rva::adjust_read_only`], and
/// [`crate::rva::adjusted_differ`] decides it. The outcome and the ledger
/// charge do not depend on `groups`.
pub(crate) fn compare_pair_in(
    a: &ExtractedModule,
    b: &ExtractedModule,
    mut ledger: Option<&mut VmiSession<'_>>,
    scratch: &mut PairScratch,
    groups: Option<(&SectionGroups<'_>, usize, usize)>,
) -> Result<PairOutcome, CheckError> {
    if a.algo != b.algo {
        return Err(CheckError::AlgoMismatch {
            a: a.algo,
            b: b.algo,
        });
    }
    let algo = a.algo;
    let mut slots_adjusted = 0usize;
    let mut residual_diffs = 0usize;

    let mut mismatched = header_mismatches(&a.header_hashes, &b.header_hashes);

    // Executable sections: adjust RVAs pairwise, then compare. Sections
    // pair by name and occurrence; one without a counterpart is a mismatch.
    let width = a.parts.width;
    for (ia, sa) in a.parts.exec_sections.iter().enumerate() {
        let Some(ib) = counterpart(&a.parts.exec_sections, ia, &b.parts.exec_sections) else {
            mismatched.push(PartId::SectionData(sa.name.clone()));
            continue;
        };
        let sb = &b.parts.exec_sections[ib];
        if let Some(ledger) = ledger.as_deref_mut() {
            let cost = *ledger.cost_model();
            let bytes = (sa.range.len() + sb.range.len()) as u64;
            // Scan both buffers once (diff), hash both.
            ledger.charge_process(cost.diff_byte_ns, bytes);
            ledger.charge_process(cost.hash_byte_ns * algo.cost_factor(), bytes);
        }
        let (bytes_a, bytes_b) = (
            &a.image.bytes[sa.range.clone()],
            &b.image.bytes[sb.range.clone()],
        );
        let (base_a, base_b) = (a.image.base, b.image.base);
        let shortcut = match groups.and_then(|(g, i, j)| g.grouping(i, ia, j, ib)) {
            Some(Grouping::Same(slots)) => Some((
                crate::rva::adjust_grouped(slots, bytes_a.len(), base_a, base_b, width),
                false,
            )),
            Some(Grouping::Segments(slots, differing)) => crate::rva::adjust_segmented(
                bytes_a,
                bytes_b,
                base_a,
                base_b,
                width,
                (slots, &differing),
                &mut scratch.slots,
            ),
            None => None,
        };
        // Without a shortcut the adjusted bytes decide, and the pass reads
        // both sections in place: equal bytes hash equal, and unequal ones
        // hash unequal unless their digests collide, which the bytes expose.
        let (stats, differ) = shortcut.unwrap_or_else(|| {
            scratch.slots.clear();
            let stats = crate::rva::adjust_read_only(
                bytes_a,
                bytes_b,
                base_a,
                base_b,
                width,
                &mut scratch.slots,
            );
            let differ = crate::rva::adjusted_differ(bytes_a, bytes_b, &scratch.slots, width);
            (stats, differ)
        });
        slots_adjusted += stats.slots_adjusted;
        residual_diffs += stats.residual_diffs;
        if differ {
            mismatched.push(PartId::SectionData(sa.name.clone()));
        }
    }
    for (ib, sb) in b.parts.exec_sections.iter().enumerate() {
        if counterpart(&b.parts.exec_sections, ib, &a.parts.exec_sections).is_none() {
            mismatched.push(PartId::SectionData(sb.name.clone()));
        }
    }

    mismatched.sort();
    mismatched.dedup();
    Ok(PairOutcome {
        vms: (a.image.vm_name.clone(), b.image.vm_name.clone()),
        mismatched,
        slots_adjusted,
        residual_diffs,
    })
}

/// The canonical (self-normalized) digest set of one capture.
///
/// Instead of reconciling relocation pairwise (Algorithm 2, O(t²) pairs),
/// each capture is normalized *once* against its own load base via its
/// `.reloc` table and hashed; two clean captures then have byte-equal
/// canonical forms regardless of base, so majority voting reduces to
/// content-addressed bucket grouping of fingerprints — O(t). Captures
/// without a parseable `.reloc` section have no canonical form and fall
/// back to the pairwise path (the table is in-guest metadata a rootkit can
/// strip; stripping it costs the attacker the fast path, not detection).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CanonicalForm {
    /// Per-part digests — header hashes plus canonical executable-section
    /// hashes — sorted by part id. Two captures bucket together iff these
    /// are equal; the vector is directly usable as a hash-map key.
    pub part_digests: Vec<(PartId, PartDigest)>,
    /// Relocation slots rewritten during normalization.
    pub slots_normalized: usize,
    /// Digest algorithm of every entry.
    pub algo: DigestAlgo,
}

impl CanonicalForm {
    /// The bucket key: the full sorted per-part digest vector.
    pub fn fingerprint(&self) -> &[(PartId, PartDigest)] {
        &self.part_digests
    }
}

/// Computes a capture's canonical form, or `None` when the module carries
/// no parseable `.reloc` section (pairwise fallback). Charges parse, slot
/// rewrite, and hash costs to `ledger` when provided — once per capture,
/// not per pair.
///
/// The form is computed on the first call and memoized in the capture;
/// later calls return the memo. Every call charges the ledger the same
/// amount, memoized or not: simulated time models the checker's work per
/// round, not this process's reuse of it.
pub fn canonical_form(
    m: &ExtractedModule,
    ledger: Option<&mut VmiSession<'_>>,
) -> Option<CanonicalForm> {
    canonical_form_in(m, ledger, None)
}

/// [`canonical_form`], within one scan when `groups` holds the scan's
/// section grouping with the position of `m` in it; otherwise `m` is
/// grouped alone. The form and the ledger charge do not depend on
/// `groups`.
pub(crate) fn canonical_form_in(
    m: &ExtractedModule,
    ledger: Option<&mut VmiSession<'_>>,
    groups: Option<(&SectionGroups<'_>, usize)>,
) -> Option<CanonicalForm> {
    let (form, reloc_len) = m
        .canonical
        .get_or_init(|| match groups {
            Some((groups, i)) => compute_canonical(m, groups, i),
            None => compute_canonical(m, &SectionGroups::build([Some(m)]), 0),
        })
        .as_ref()?;
    if let Some(ledger) = ledger {
        let cost = *ledger.cost_model();
        let exec_len: usize = m.parts.exec_sections.iter().map(|s| s.range.len()).sum();
        // Parse the reloc metadata, rewrite each slot, hash each canonical
        // executable section — all linear in this one capture.
        ledger.charge_process(cost.parse_byte_ns, *reloc_len as u64);
        ledger.charge_process(
            cost.diff_byte_ns,
            (form.slots_normalized * m.parts.width.bytes()) as u64,
        );
        ledger.charge_process(cost.hash_byte_ns * m.algo.cost_factor(), exec_len as u64);
    }
    Some(form.clone())
}

/// The uncached work behind [`canonical_form_in`], for capture `i` of
/// `groups`. An exact section takes its group's streamed digest. Any other
/// section (a slot listed twice or straddling its edge, or slots closer
/// than one address width) is hashed from a copy of the image normalized
/// by the whole table, in table order.
fn compute_canonical(
    m: &ExtractedModule,
    groups: &SectionGroups<'_>,
    i: usize,
) -> Option<(CanonicalForm, usize)> {
    let table = groups.tables.get(i)?.as_ref()?;
    let copy = if table.sections.iter().all(|s| matches!(s, Some((_, true)))) {
        Vec::new()
    } else {
        let parsed = mc_pe::parser::ParsedModule::parse_memory(&m.image.bytes).ok()?;
        let mut bytes = m.image.bytes.clone();
        crate::rva::normalize_with_reloc_table(&mut bytes, m.image.base, &parsed)?;
        bytes
    };
    let mut part_digests = m.header_hashes.clone();
    for (s, section) in m.parts.exec_sections.iter().zip(&table.sections) {
        let d = match *section {
            Some((g, true)) => groups.digest(g, m.algo),
            _ => digest(m.algo, copy.get(s.range.clone())?),
        };
        part_digests.push((PartId::SectionData(s.name.clone()), d));
    }
    part_digests.sort_by(|x, y| x.0.cmp(&y.0));
    let form = CanonicalForm {
        part_digests,
        slots_normalized: table.slots_normalized,
        algo: m.algo,
    };
    Some((form, table.reloc_len))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mc_guest::build_cloud_with_modules;
    use mc_hypervisor::{AddressWidth, Hypervisor};
    use mc_pe::corpus::ModuleBlueprint;
    use mc_vmi::VmiSession;

    use crate::searcher::ModuleSearcher;

    /// The canonical form as the copy-and-hash pass computes it: the whole
    /// image cloned, normalized by its `.reloc` table and each executable
    /// section hashed. The reference the grouped forms must equal, with the
    /// `.reloc` length the ledger charge reads.
    pub(crate) fn copy_and_hash_canonical(m: &ExtractedModule) -> Option<(CanonicalForm, usize)> {
        let parsed = mc_pe::parser::ParsedModule::parse_memory(&m.image.bytes).ok()?;
        let reloc_len = parsed.sections[parsed.find_section(".reloc")?]
            .data_range
            .len();
        let mut bytes = m.image.bytes.clone();
        let slots_normalized =
            crate::rva::normalize_with_reloc_table(&mut bytes, m.image.base, &parsed)?;
        let mut part_digests = m.header_hashes.clone();
        for s in &m.parts.exec_sections {
            part_digests.push((
                PartId::SectionData(s.name.clone()),
                digest(m.algo, &bytes[s.range.clone()]),
            ));
        }
        part_digests.sort_by(|x, y| x.0.cmp(&y.0));
        let form = CanonicalForm {
            part_digests,
            slots_normalized,
            algo: m.algo,
        };
        Some((form, reloc_len))
    }

    fn extract_from(hv: &Hypervisor, vm: mc_hypervisor::VmId, module: &str) -> ExtractedModule {
        let mut s = VmiSession::attach(hv, vm).unwrap();
        let img = ModuleSearcher::find(&mut s, module).unwrap();
        ExtractedModule::new(img).unwrap()
    }

    fn two_vm_cloud(width: AddressWidth) -> (Hypervisor, Vec<mc_guest::GuestOs>) {
        let mut hv = Hypervisor::new();
        let bps = vec![ModuleBlueprint::new("hal.dll", width, 16 * 1024)];
        let guests = build_cloud_with_modules(&mut hv, 2, width, &bps).unwrap();
        (hv, guests)
    }

    #[test]
    fn clean_modules_fully_match_despite_relocation() {
        let (hv, guests) = two_vm_cloud(AddressWidth::W32);
        let a = extract_from(&hv, guests[0].vm, "hal.dll");
        let b = extract_from(&hv, guests[1].vm, "hal.dll");
        assert_ne!(a.image.base, b.image.base, "distinct bases by construction");

        // Raw .text bytes differ before adjustment...
        let ta = &a.image.bytes[a.parts.exec_sections[0].range.clone()];
        let tb = &b.image.bytes[b.parts.exec_sections[0].range.clone()];
        assert_ne!(ta, tb);

        // ...but the comparison reconciles and matches everything.
        let out = compare_pair(&a, &b, None).unwrap();
        assert!(out.matches(), "mismatched: {:?}", out.mismatched);
        assert!(out.slots_adjusted > 0, "relocation slots were reconciled");
        assert_eq!(out.residual_diffs, 0);
    }

    #[test]
    fn in_memory_text_patch_flags_text_only() {
        let (mut hv, guests) = two_vm_cloud(AddressWidth::W32);
        // Patch a code byte (clear of any reloc slot) inside VM 0's hal.dll.
        let truth = guests[0].find_module("hal.dll").unwrap().clone();
        // Offset 0x1000 is the start of .text (first section after headers);
        // add a small odd offset to land inside code.
        let patch_off = 0x1000u64 + 3;
        guests[0]
            .patch_module(&mut hv, "hal.dll", patch_off, &[0xEB])
            .unwrap();
        let _ = truth;
        let a = extract_from(&hv, guests[0].vm, "hal.dll");
        let b = extract_from(&hv, guests[1].vm, "hal.dll");
        let out = compare_pair(&a, &b, None).unwrap();
        assert_eq!(
            out.mismatched,
            vec![PartId::SectionData(".text".into())],
            "only .text content differs"
        );
        assert!(out.residual_diffs > 0);
    }

    #[test]
    fn sixty_four_bit_pair_matches() {
        let (hv, guests) = two_vm_cloud(AddressWidth::W64);
        let a = extract_from(&hv, guests[0].vm, "hal.dll");
        let b = extract_from(&hv, guests[1].vm, "hal.dll");
        let out = compare_pair(&a, &b, None).unwrap();
        assert!(out.matches(), "mismatched: {:?}", out.mismatched);
        assert!(out.slots_adjusted > 0);
    }

    #[test]
    fn structurally_divergent_modules_flag_the_extra_parts() {
        // Compare a module against a variant with an extra section (as the
        // DLL-hook attack produces): parts present on one side only are
        // mismatches by construction, in both directions.
        let (hv, guests) = two_vm_cloud(AddressWidth::W32);
        let a = extract_from(&hv, guests[0].vm, "hal.dll");
        let mut b = extract_from(&hv, guests[1].vm, "hal.dll");
        // Simulate divergence by renaming b's .text section in its parsed
        // metadata (cheaper than rebuilding a whole cloud).
        for p in &mut b.parts.parts {
            if let PartId::SectionData(name) = &mut p.id {
                if name == ".text" {
                    *name = ".evil".into();
                }
            }
        }
        for s in &mut b.parts.exec_sections {
            if s.name == ".text" {
                s.name = ".evil".into();
            }
        }
        let out = compare_pair(&a, &b, None).unwrap();
        assert!(out
            .mismatched
            .contains(&PartId::SectionData(".text".into())));
        assert!(out
            .mismatched
            .contains(&PartId::SectionData(".evil".into())));
    }

    #[test]
    fn a_duplicate_named_exec_section_is_compared_not_skipped() {
        // A second `.text` on one side has no counterpart on the other: it
        // must be flagged, not paired with the other side's first `.text`
        // and then waved through by the reverse pass.
        let (hv, guests) = two_vm_cloud(AddressWidth::W32);
        let a = extract_from(&hv, guests[0].vm, "hal.dll");
        let b = extract_from(&hv, guests[1].vm, "hal.dll");
        let text = PartId::SectionData(".text".into());
        let with_second_text = |m: &ExtractedModule| {
            let mut m = m.clone();
            let dup = m.parts.exec_sections[0].clone();
            m.parts.exec_sections.push(dup);
            m
        };
        let b2 = with_second_text(&b);
        assert!(compare_pair(&a, &b2, None)
            .unwrap()
            .mismatched
            .contains(&text));
        let a2 = with_second_text(&a);
        assert!(compare_pair(&a2, &b, None)
            .unwrap()
            .mismatched
            .contains(&text));
        // Both sides carrying the same two sections pair them one to one.
        let out = compare_pair(&a2, &b2, None).unwrap();
        assert!(out.matches(), "mismatched: {:?}", out.mismatched);
        let single = compare_pair(&a, &b, None).unwrap();
        assert_eq!(out.slots_adjusted, 2 * single.slots_adjusted);
    }

    #[test]
    fn sha256_extraction_matches_clean_pairs_too() {
        let (hv, guests) = two_vm_cloud(AddressWidth::W32);
        let extract = |vm| {
            let mut s = VmiSession::attach(&hv, vm).unwrap();
            let img = ModuleSearcher::find(&mut s, "hal.dll").unwrap();
            ExtractedModule::with_algo(img, crate::digest::DigestAlgo::Sha256).unwrap()
        };
        let a = extract(guests[0].vm);
        let b = extract(guests[1].vm);
        let out = compare_pair(&a, &b, None).unwrap();
        assert!(out.matches(), "mismatched: {:?}", out.mismatched);
    }

    #[test]
    fn ledger_accrues_checker_costs() {
        let (hv, guests) = two_vm_cloud(AddressWidth::W32);
        let a = extract_from(&hv, guests[0].vm, "hal.dll");
        let b = extract_from(&hv, guests[1].vm, "hal.dll");
        let mut ledger = VmiSession::attach(&hv, guests[0].vm).unwrap();
        let before = ledger.elapsed();
        compare_pair(&a, &b, Some(&mut ledger)).unwrap();
        assert!(ledger.elapsed() > before);
    }

    #[test]
    fn algo_mismatch_is_a_typed_error() {
        let (hv, guests) = two_vm_cloud(AddressWidth::W32);
        let a = extract_from(&hv, guests[0].vm, "hal.dll");
        let mut s = VmiSession::attach(&hv, guests[1].vm).unwrap();
        let img = ModuleSearcher::find(&mut s, "hal.dll").unwrap();
        let b = ExtractedModule::with_algo(img, crate::digest::DigestAlgo::Sha256).unwrap();
        assert!(matches!(
            compare_pair(&a, &b, None),
            Err(CheckError::AlgoMismatch { .. })
        ));
    }

    #[test]
    fn header_hashes_are_sorted_for_the_merge() {
        let (hv, guests) = two_vm_cloud(AddressWidth::W32);
        let a = extract_from(&hv, guests[0].vm, "hal.dll");
        assert!(a.header_hashes.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn scratch_arena_reuse_agrees_with_fresh_buffers() {
        let (hv, guests) = two_vm_cloud(AddressWidth::W32);
        let a = extract_from(&hv, guests[0].vm, "hal.dll");
        let b = extract_from(&hv, guests[1].vm, "hal.dll");
        let mut scratch = PairScratch::new();
        let first = compare_pair_with(&a, &b, None, &mut scratch).unwrap();
        let second = compare_pair_with(&a, &b, None, &mut scratch).unwrap();
        let fresh = compare_pair(&a, &b, None).unwrap();
        assert_eq!(first.mismatched, fresh.mismatched);
        assert_eq!(second.mismatched, fresh.mismatched);
        assert_eq!(second.slots_adjusted, fresh.slots_adjusted);
    }

    #[test]
    fn clean_captures_share_a_canonical_fingerprint() {
        let (hv, guests) = two_vm_cloud(AddressWidth::W32);
        let a = extract_from(&hv, guests[0].vm, "hal.dll");
        let b = extract_from(&hv, guests[1].vm, "hal.dll");
        assert_ne!(a.image.base, b.image.base);
        let ca = canonical_form(&a, None).expect("corpus modules carry .reloc");
        let cb = canonical_form(&b, None).unwrap();
        assert!(ca.slots_normalized > 0);
        assert_eq!(
            ca.fingerprint(),
            cb.fingerprint(),
            "clean captures normalize to identical digests despite distinct bases"
        );
    }

    #[test]
    fn tampered_capture_gets_a_distinct_canonical_fingerprint() {
        let (mut hv, guests) = two_vm_cloud(AddressWidth::W32);
        guests[0]
            .patch_module(&mut hv, "hal.dll", 0x1000 + 3, &[0xEB])
            .unwrap();
        let a = extract_from(&hv, guests[0].vm, "hal.dll");
        let b = extract_from(&hv, guests[1].vm, "hal.dll");
        let ca = canonical_form(&a, None).unwrap();
        let cb = canonical_form(&b, None).unwrap();
        assert_ne!(ca.fingerprint(), cb.fingerprint());
    }

    #[test]
    fn canonical_ledger_cost_is_per_capture_not_per_pair() {
        let (hv, guests) = two_vm_cloud(AddressWidth::W32);
        let a = extract_from(&hv, guests[0].vm, "hal.dll");
        let b = extract_from(&hv, guests[1].vm, "hal.dll");
        let mut ledger = VmiSession::attach(&hv, guests[0].vm).unwrap();
        ledger.take_elapsed();
        canonical_form(&a, Some(&mut ledger)).unwrap();
        canonical_form(&b, Some(&mut ledger)).unwrap();
        let canonical_cost = ledger.take_elapsed();
        compare_pair(&a, &b, Some(&mut ledger)).unwrap();
        let pair_cost = ledger.take_elapsed();
        assert!(
            canonical_cost.as_nanos() > 0,
            "canonical work is not free: {canonical_cost}"
        );
        assert!(
            canonical_cost.as_nanos() < 2 * pair_cost.as_nanos(),
            "two canonicalizations ({canonical_cost}) should not dwarf one pair ({pair_cost})"
        );
    }

    #[test]
    fn memoized_canonical_form_is_equal_and_charged_the_same() {
        let (hv, guests) = two_vm_cloud(AddressWidth::W32);
        let a = extract_from(&hv, guests[0].vm, "hal.dll");
        assert!(a.canonical.get().is_none(), "a fresh capture has no memo");
        let mut ledger = VmiSession::attach(&hv, guests[0].vm).unwrap();
        ledger.take_elapsed();
        let first = canonical_form(&a, Some(&mut ledger)).unwrap();
        let first_cost = ledger.take_elapsed();
        assert!(a.canonical.get().is_some(), "the first call fills the memo");
        let second = canonical_form(&a, Some(&mut ledger)).unwrap();
        let second_cost = ledger.take_elapsed();
        assert_eq!(first, second);
        assert!(first_cost.as_nanos() > 0);
        assert_eq!(first_cost.as_nanos(), second_cost.as_nanos());
        assert_eq!(canonical_form(&a, None), Some(first));
    }

    #[test]
    fn a_patched_clone_does_not_inherit_the_memo() {
        let (hv, guests) = two_vm_cloud(AddressWidth::W32);
        let a = extract_from(&hv, guests[0].vm, "hal.dll");
        let original = canonical_form(&a, None).unwrap();
        let mut b = a.clone();
        assert!(b.canonical.get().is_none(), "a clone starts unmemoized");
        let text = b.parts.exec_sections[0].range.start + 3;
        b.image.bytes[text] ^= 0xFF;
        let patched = canonical_form(&b, None).unwrap();
        assert_ne!(original.fingerprint(), patched.fingerprint());
        assert_eq!(canonical_form(&a, None), Some(original));
    }

    #[test]
    fn one_scan_streams_each_distinct_group_once() {
        let (hv, guests) = two_vm_cloud(AddressWidth::W32);
        let a = extract_from(&hv, guests[0].vm, "hal.dll");
        let b = extract_from(&hv, guests[1].vm, "hal.dll");
        let mut c = a.clone();
        let at = c.parts.exec_sections[0].range.start + 3;
        c.image.bytes[at] ^= 0xFF;
        let sha = ExtractedModule::with_algo(a.image.clone(), DigestAlgo::Sha256).unwrap();
        let exec = a.parts.exec_sections.len();

        let scan = [&a, &b, &c, &sha];
        let groups = SectionGroups::build(scan.map(Some));
        for (i, m) in scan.into_iter().enumerate() {
            let reference = copy_and_hash_canonical(m).map(|(f, _)| f);
            assert_eq!(canonical_form_in(m, None, Some((&groups, i))), reference);
        }
        // `a`, `b` and `sha` normalize alike, and `c` differs in its first
        // section only: one group per distinct section, each holding the
        // digest streamed under the scan's first algorithm.
        assert_eq!(groups.keys.len(), exec + 1);
        let md5 = |k: &GroupKey<'_>| k.digest.get().map(PartDigest::algo) == Some(DigestAlgo::Md5);
        assert!(groups.keys.iter().all(md5));
    }

    #[test]
    fn a_slot_listed_twice_is_hashed_from_the_normalized_copy() {
        let (hv, guests) = two_vm_cloud(AddressWidth::W32);
        let clean = extract_from(&hv, guests[1].vm, "hal.dll");
        // List `.text`'s first slot a second time in place of the next one,
        // so normalizing the image rewrites it twice.
        let mut doubled = extract_from(&hv, guests[0].vm, "hal.dll");
        let parsed = mc_pe::parser::ParsedModule::parse_memory(&doubled.image.bytes).unwrap();
        let reloc = parsed.sections[parsed.find_section(".reloc").unwrap()]
            .data_range
            .start;
        let first = reloc + 8;
        let entry = [doubled.image.bytes[first], doubled.image.bytes[first + 1]];
        doubled.image.bytes[first + 2..first + 4].copy_from_slice(&entry);

        let scan = [&doubled, &clean];
        let groups = SectionGroups::build(scan.map(Some));
        assert_eq!(groups.section(0, 0).map(|(_, exact)| exact), Some(false));
        assert_eq!(groups.section(1, 0).map(|(_, exact)| exact), Some(true));
        for (i, m) in scan.into_iter().enumerate() {
            let reference = copy_and_hash_canonical(m).map(|(f, _)| f);
            assert_eq!(canonical_form_in(m, None, Some((&groups, i))), reference);
            assert_eq!(canonical_form(&m.clone(), None), reference);
        }
        let (d, c) = (canonical_form(&doubled, None), canonical_form(&clean, None));
        assert_ne!(d.unwrap().fingerprint(), c.unwrap().fingerprint());
    }
}
