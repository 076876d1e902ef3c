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
//! captures, one scan's canonical pass hashes each distinct normalized
//! executable section once ([`SeenSections`]), and one scan's pairwise
//! matrix groups executable sections that share normalized bytes and slot
//! list ([`SectionGroups`]): a section pair within a group takes Algorithm
//! 2's closed form and is neither scanned nor hashed, and two groups over
//! one slot list scan only the segments where they differ. Every other
//! executable-section pair, inside a scan or not, is decided by its
//! adjusted bytes: Algorithm 2 reads both sections in place, and the pair
//! matches when nothing is left but the slots it rewrote. No executable
//! section is copied or hashed for a pair. None of this changes what a
//! comparison returns or what it charges to a ledger.

use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use mc_pe::AddressWidth;
use mc_vmi::VmiSession;

use crate::digest::{digest, DigestAlgo, PartDigest};
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
    /// Memoized [`canonical_form`] outcome; see the type docs.
    pub(crate) canonical: OnceLock<Option<CanonicalMemo>>,
}

/// A computed canonical form plus the `.reloc` length its ledger charge
/// needs, so a memoized call charges exactly what a fresh one would.
#[derive(Debug)]
pub(crate) struct CanonicalMemo {
    form: CanonicalForm,
    reloc_len: usize,
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
/// slot list and normalized bytes: for each capture, in scan order, and
/// each of its executable sections, the group, or `None` for a section in
/// no group.
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
    /// Per capture, per executable section: its group.
    of: Vec<Vec<Option<usize>>>,
    keys: Vec<GroupKey<'a>>,
    /// The differing segments of pairs of groups over one slot list,
    /// filled on first use.
    differing: Mutex<Vec<GroupPairSegments>>,
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
    /// Groups the executable sections of `captures`. A section has no
    /// group when its capture has no parseable `.reloc` table or when two
    /// of its slots lie closer than one address width. Copies no section
    /// bytes: each lookup normalizes both sides in place as it compares.
    pub(crate) fn build(captures: impl IntoIterator<Item = &'a ExtractedModule>) -> Self {
        let mut keys: Vec<GroupKey<'a>> = Vec::new();
        let of = captures
            .into_iter()
            .map(|m| {
                let rvas = reloc_slots(m);
                m.parts
                    .exec_sections
                    .iter()
                    .map(|s| {
                        let rvas = rvas.as_deref()?;
                        group_of(m, s.range.clone(), rvas, &mut keys)
                    })
                    .collect()
            })
            .collect();
        SectionGroups {
            of,
            keys,
            differing: Mutex::default(),
        }
    }

    /// How section `ia` of capture `i` and section `ib` of capture `j`
    /// compare, when both are in groups that allow a shortcut.
    fn grouping(&self, i: usize, ia: usize, j: usize, ib: usize) -> Option<Grouping<'_>> {
        let ga = self.of.get(i)?.get(ia).copied().flatten()?;
        let gb = self.of.get(j)?.get(ib).copied().flatten()?;
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

/// `m`'s `.reloc` slot RVAs, sorted and deduplicated, parsed as
/// [`compute_canonical`] parses them; `None` without a parseable table.
fn reloc_slots(m: &ExtractedModule) -> Option<Vec<u32>> {
    let parsed = mc_pe::parser::ParsedModule::parse_memory(&m.image.bytes).ok()?;
    let mut rvas = crate::rva::reloc_rvas(&m.image.bytes, &parsed)?;
    rvas.sort_unstable();
    rvas.dedup();
    Some(rvas)
}

/// The group of the executable section at `range` of `m`, whose image
/// carries the sorted slot RVAs `rvas`: an existing group when one has the
/// same key, else a new one keyed by this section.
fn group_of<'a>(
    m: &'a ExtractedModule,
    range: Range<usize>,
    rvas: &[u32],
    keys: &mut Vec<GroupKey<'a>>,
) -> Option<usize> {
    let width = m.parts.width;
    let w = width.bytes();
    // The slots lying fully inside the section, as section offsets.
    let first = rvas.partition_point(|&r| (r as usize) < range.start);
    let slots: Vec<u32> = rvas[first..]
        .iter()
        .map(|&r| r as usize)
        .take_while(|&r| r + w <= range.end)
        .map(|r| (r - range.start) as u32)
        .collect();
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
    Some(hit.unwrap_or_else(|| {
        keys.push(GroupKey {
            width,
            slots,
            section,
            base,
        });
        keys.len() - 1
    }))
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
    let mut mismatched = Vec::new();
    let mut slots_adjusted = 0usize;
    let mut residual_diffs = 0usize;

    // Headers: cached hashes, sorted by part id at extraction, so one
    // linear merge aligns both sides. A part present on one side only
    // (e.g. a section added by DLL injection changed the section count)
    // is a mismatch by construction.
    let ha = &a.header_hashes;
    let hb = &b.header_hashes;
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
    for (id, _) in &ha[i..] {
        mismatched.push(id.clone());
    }
    for (id, _) in &hb[j..] {
        mismatched.push(id.clone());
    }

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
    canonical_form_in(m, ledger, &mut SeenSections::default())
}

/// [`canonical_form`] within one scan: a normalized executable section
/// byte-identical to one already in `seen` (same algorithm) takes its
/// digest instead of being hashed again. The form and the ledger charge
/// are exactly those of [`canonical_form`].
pub(crate) fn canonical_form_in(
    m: &ExtractedModule,
    ledger: Option<&mut VmiSession<'_>>,
    seen: &mut SeenSections,
) -> Option<CanonicalForm> {
    let memo = m
        .canonical
        .get_or_init(|| compute_canonical(m, seen))
        .as_ref()?;
    if let Some(ledger) = ledger {
        let cost = *ledger.cost_model();
        let exec_len: usize = m.parts.exec_sections.iter().map(|s| s.range.len()).sum();
        // Parse the reloc metadata, rewrite each slot, hash each canonical
        // executable section — all linear in this one capture.
        ledger.charge_process(cost.parse_byte_ns, memo.reloc_len as u64);
        ledger.charge_process(
            cost.diff_byte_ns,
            (memo.form.slots_normalized * m.parts.width.bytes()) as u64,
        );
        ledger.charge_process(cost.hash_byte_ns * m.algo.cost_factor(), exec_len as u64);
    }
    Some(memo.form.clone())
}

/// Normalized executable sections already hashed in one scan, with their
/// digests.
///
/// A pool's clean captures normalize to the same bytes, so a scan holding
/// this table MD5s each distinct section once rather than once per VM. The
/// table keeps the normalized images it points into (moved in, not copied)
/// and is searched linearly. That needs no bound: distinct sections stand
/// for canonical buckets, and the scan already runs a full pairwise
/// comparison between every two bucket representatives, so one byte
/// comparison per recorded section adds nothing asymptotically.
#[derive(Debug, Default)]
pub(crate) struct SeenSections {
    /// Normalized images owning at least one recorded section.
    images: Vec<Vec<u8>>,
    /// `(image index, byte range, digest)` of each recorded section.
    sections: Vec<(usize, Range<usize>, PartDigest)>,
}

impl SeenSections {
    /// Takes a normalized image in and returns its index.
    fn admit(&mut self, image: Vec<u8>) -> usize {
        self.images.push(image);
        self.images.len() - 1
    }

    /// The `algo` digest of `range` of image `image`: a recorded section's
    /// when one is byte-identical under the same algorithm, otherwise
    /// hashed and recorded.
    fn digest(&mut self, image: usize, range: Range<usize>, algo: DigestAlgo) -> PartDigest {
        let bytes = &self.images[image][range.clone()];
        let hit = self
            .sections
            .iter()
            .find(|(i, r, d)| d.algo() == algo && self.images[*i][r.clone()] == *bytes);
        if let Some(&(_, _, d)) = hit {
            return d;
        }
        let d = digest(algo, bytes);
        self.sections.push((image, range, d));
        d
    }

    /// Drops image `image` again when none of its sections was recorded
    /// (it is the latest admitted, so no index moves).
    fn release_unused(&mut self, image: usize) {
        if self.sections.last().is_none_or(|(i, _, _)| *i != image) {
            self.images.truncate(image);
        }
    }
}

/// The uncached work behind [`canonical_form_in`].
fn compute_canonical(m: &ExtractedModule, seen: &mut SeenSections) -> Option<CanonicalMemo> {
    let parsed = mc_pe::parser::ParsedModule::parse_memory(&m.image.bytes).ok()?;
    let reloc_len = parsed
        .find_section(".reloc")
        .map(|i| parsed.sections[i].data_range.len())?;
    let mut bytes = m.image.bytes.clone();
    let slots_normalized =
        crate::rva::normalize_with_reloc_table(&mut bytes, m.image.base, &parsed)?;
    let image = seen.admit(bytes);
    let mut part_digests = m.header_hashes.clone();
    for s in &m.parts.exec_sections {
        part_digests.push((
            PartId::SectionData(s.name.clone()),
            seen.digest(image, s.range.clone(), m.algo),
        ));
    }
    seen.release_unused(image);
    part_digests.sort_by(|x, y| x.0.cmp(&y.0));
    Some(CanonicalMemo {
        form: CanonicalForm {
            part_digests,
            slots_normalized,
            algo: m.algo,
        },
        reloc_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mc_guest::build_cloud_with_modules;
    use mc_hypervisor::{AddressWidth, Hypervisor};
    use mc_pe::corpus::ModuleBlueprint;
    use mc_vmi::VmiSession;

    use crate::searcher::ModuleSearcher;

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
    fn one_scan_hashes_each_distinct_section_once() {
        let (hv, guests) = two_vm_cloud(AddressWidth::W32);
        let a = extract_from(&hv, guests[0].vm, "hal.dll");
        let b = extract_from(&hv, guests[1].vm, "hal.dll");
        let mut c = a.clone();
        let at = c.parts.exec_sections[0].range.start + 3;
        c.image.bytes[at] ^= 0xFF;
        let sha = ExtractedModule::with_algo(a.image.clone(), DigestAlgo::Sha256).unwrap();
        let exec = a.parts.exec_sections.len();

        let mut seen = SeenSections::default();
        for m in [&a, &b, &c, &sha] {
            let alone = canonical_form(&m.clone(), None);
            assert_eq!(canonical_form_in(m, None, &mut seen), alone);
        }
        // `a` and `b` normalize alike; `c` differs in one byte, and `sha`
        // has `a`'s bytes under another algorithm.
        assert_eq!(seen.sections.len(), 3 * exec);
        assert_eq!(seen.images.len(), 3, "b's image was not kept");
    }
}
