//! Integrity-Checker — per-part MD5 hashing and pairwise comparison.
//!
//! For a pair of VMs, every header part is hashed directly; executable
//! section data is first run through Algorithm 2 ([`crate::rva`]) to undo
//! relocation, then hashed. The set of parts whose hashes disagree is the
//! comparison outcome — e.g. the paper's §V.B.4 experiment reports
//! mismatches in `IMAGE_NT_HEADER`, `IMAGE_OPTIONAL_HEADER`, all
//! `SECTION_HEADER`s and `.text`.
//!
//! Each capture keeps two memos of derived digests, so the work behind
//! them is done once per capture rather than once per pair or per round:
//! its [`canonical_form`], and for each executable section the digest of
//! its Algorithm 2 output, keyed by the log of slots that pass rewrote.
//! Across captures, one scan's canonical pass hashes each distinct
//! normalized executable section once ([`SeenSections`]). None of this
//! changes what a comparison returns or what it charges to a ledger.

use std::ops::Range;
use std::sync::{Mutex, OnceLock, PoisonError};

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
/// hashed only once. A second memo holds, per executable section, the
/// digest of its bytes after the last pairwise Algorithm 2 pass together
/// with that pass's slot log: a pairwise sweep produces the same log for
/// most peers, so each section is hashed about once per sweep instead of
/// once per pair. Both memos are derived from the fields as they stood
/// when they were filled: [`Clone`] starts the copy with empty memos, so
/// the way to derive a modified capture is to clone it and edit the clone.
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
    /// Per executable section (indexed as `parts.exec_sections`), the
    /// latest adjusted digest; see the type docs. Locked because parallel
    /// scans compare one capture in several pairs at once.
    pub(crate) adjusted: Mutex<Vec<Option<AdjustedDigest>>>,
}

/// The digest of one executable section after Algorithm 2, with the
/// width and slot log that produced the adjusted bytes.
///
/// Algorithm 2 rewrites each logged slot of a side to the value read from
/// that side's own buffer minus that side's own base, so the adjusted
/// bytes — and their digest — are a function of the capture, the width
/// and the log alone, whichever peer produced the log.
#[derive(Debug)]
pub(crate) struct AdjustedDigest {
    width: AddressWidth,
    slots: Vec<u32>,
    digest: PartDigest,
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
            adjusted: Mutex::default(),
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
            adjusted: Mutex::default(),
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

    /// The digest of exec section `section` once Algorithm 2 has rewritten
    /// `slots` under `width`; `adjusted` holds those adjusted bytes. Served
    /// from the memo when the entry's width and log match; otherwise hashed
    /// outside the lock and stored in place of the old entry.
    fn adjusted_digest(
        &self,
        section: usize,
        width: AddressWidth,
        slots: &[u32],
        adjusted: &[u8],
    ) -> PartDigest {
        // Every update replaces a whole entry, so a poisoned memo still
        // holds only complete, correct entries.
        let lock = || self.adjusted.lock().unwrap_or_else(PoisonError::into_inner);
        let hit = lock()
            .get(section)
            .and_then(Option::as_ref)
            .filter(|e| e.width == width && e.slots == slots)
            .map(|e| e.digest);
        if let Some(d) = hit {
            return d;
        }
        let d = digest(self.algo, adjusted);
        let mut memo = lock();
        if memo.len() <= section {
            memo.resize_with(section + 1, || None);
        }
        memo[section] = Some(AdjustedDigest {
            width,
            slots: slots.to_vec(),
            digest: d,
        });
        d
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

/// Reusable scratch buffers for the pairwise path. Algorithm 2 mutates both
/// section copies in place, so each comparison needs writable working
/// memory; keeping it in a scratch arena lets a sequential matrix sweep run
/// allocation-free after the first pair instead of allocating two fresh
/// buffers per pair.
#[derive(Clone, Debug, Default)]
pub struct PairScratch {
    buf_a: Vec<u8>,
    buf_b: Vec<u8>,
    slots: Vec<u32>,
}

impl PairScratch {
    /// Creates an empty arena (buffers grow to the largest section seen).
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

/// [`compare_pair`] with caller-provided scratch buffers, for matrix sweeps
/// that reuse one arena across many pairs.
///
/// Each side's adjusted-section digest comes from that capture's memo when
/// the pass rewrote the same slots as the pass that filled it; the ledger
/// is charged for diffing and hashing both sections either way.
pub fn compare_pair_with(
    a: &ExtractedModule,
    b: &ExtractedModule,
    mut ledger: Option<&mut VmiSession<'_>>,
    scratch: &mut PairScratch,
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

    // Executable sections: adjust RVAs pairwise, then hash. Sections pair
    // by name and occurrence; one without a counterpart is a mismatch.
    let width = a.parts.width;
    for (ia, sa) in a.parts.exec_sections.iter().enumerate() {
        let Some(ib) = counterpart(&a.parts.exec_sections, ia, &b.parts.exec_sections) else {
            mismatched.push(PartId::SectionData(sa.name.clone()));
            continue;
        };
        let sb = &b.parts.exec_sections[ib];
        scratch.buf_a.clear();
        scratch
            .buf_a
            .extend_from_slice(&a.image.bytes[sa.range.clone()]);
        scratch.buf_b.clear();
        scratch
            .buf_b
            .extend_from_slice(&b.image.bytes[sb.range.clone()]);
        let (bytes_a, bytes_b) = (&mut scratch.buf_a, &mut scratch.buf_b);
        if let Some(ledger) = ledger.as_deref_mut() {
            let cost = *ledger.cost_model();
            // Scan both buffers once (diff), hash both.
            ledger.charge_process(cost.diff_byte_ns, (bytes_a.len() + bytes_b.len()) as u64);
            ledger.charge_process(
                cost.hash_byte_ns * algo.cost_factor(),
                (bytes_a.len() + bytes_b.len()) as u64,
            );
        }
        let slots = &mut scratch.slots;
        slots.clear();
        let stats = crate::rva::adjust_rvas_logged(
            bytes_a,
            bytes_b,
            a.image.base,
            b.image.base,
            width,
            slots,
        );
        slots_adjusted += stats.slots_adjusted;
        residual_diffs += stats.residual_diffs;
        if bytes_a.len() != bytes_b.len()
            || a.adjusted_digest(ia, width, slots, bytes_a)
                != b.adjusted_digest(ib, width, slots, bytes_b)
        {
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

    /// True once `m` holds a memoized adjusted digest.
    fn has_adjusted_memo(m: &ExtractedModule) -> bool {
        m.adjusted.lock().unwrap().iter().any(Option::is_some)
    }

    #[test]
    fn a_memo_hit_charges_the_ledger_like_a_miss() {
        let (hv, guests) = two_vm_cloud(AddressWidth::W32);
        let a = extract_from(&hv, guests[0].vm, "hal.dll");
        let b = extract_from(&hv, guests[1].vm, "hal.dll");
        let mut ledger = VmiSession::attach(&hv, guests[0].vm).unwrap();
        ledger.take_elapsed();
        assert!(!has_adjusted_memo(&a) && !has_adjusted_memo(&b));
        let miss = compare_pair(&a, &b, Some(&mut ledger)).unwrap();
        let miss_cost = ledger.take_elapsed();
        assert!(has_adjusted_memo(&a) && has_adjusted_memo(&b));
        let hit = compare_pair(&a, &b, Some(&mut ledger)).unwrap();
        let hit_cost = ledger.take_elapsed();
        assert!(miss_cost.as_nanos() > 0);
        assert_eq!(miss_cost.as_nanos(), hit_cost.as_nanos());
        assert_eq!(miss.mismatched, hit.mismatched);
        assert_eq!(miss.slots_adjusted, hit.slots_adjusted);
        assert_eq!(miss.residual_diffs, hit.residual_diffs);
    }

    #[test]
    fn alternating_slot_logs_overwrite_the_memo_and_stay_exact() {
        // `a` meets a distinct-base clean peer (full slot log), a same-base
        // tampered peer and a same-base clean peer (empty slot logs) in
        // turn. Each meeting replaces `a`'s memo entry, and every outcome
        // must equal the comparison of fresh, unmemoized clones.
        let (hv, guests) = two_vm_cloud(AddressWidth::W32);
        let a = extract_from(&hv, guests[0].vm, "hal.dll");
        let distinct = extract_from(&hv, guests[1].vm, "hal.dll");
        let mut tampered = a.clone();
        let at = tampered.parts.exec_sections[0].range.start + 3;
        tampered.image.bytes[at] ^= 0xFF;
        let same = a.clone();
        let text = vec![PartId::SectionData(".text".into())];
        for round in 0..3 {
            for (peer, expected) in [
                (&distinct, vec![]),
                (&tampered, text.clone()),
                (&same, vec![]),
            ] {
                let memoized = compare_pair(&a, peer, None).unwrap();
                let fresh = compare_pair(&a.clone(), &peer.clone(), None).unwrap();
                assert_eq!(memoized.mismatched, expected, "round {round}");
                assert_eq!(memoized.mismatched, fresh.mismatched);
                assert_eq!(memoized.slots_adjusted, fresh.slots_adjusted);
                assert_eq!(memoized.residual_diffs, fresh.residual_diffs);
            }
        }
    }

    #[test]
    fn a_patched_clone_does_not_inherit_the_digest_memo() {
        let (hv, guests) = two_vm_cloud(AddressWidth::W32);
        let a = extract_from(&hv, guests[0].vm, "hal.dll");
        let b = extract_from(&hv, guests[1].vm, "hal.dll");
        assert!(compare_pair(&a, &b, None).unwrap().matches());
        let mut c = a.clone();
        assert!(!has_adjusted_memo(&c), "a clone starts unmemoized");
        let at = c.parts.exec_sections[0].range.start + 3;
        c.image.bytes[at] ^= 0xFF;
        assert_eq!(
            compare_pair(&c, &b, None).unwrap().mismatched,
            vec![PartId::SectionData(".text".into())]
        );
        assert!(compare_pair(&a, &b, None).unwrap().matches());
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
