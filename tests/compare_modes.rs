//! Equivalence of the two comparison strategies: the canonical-form O(t)
//! path must return the same verdicts as the paper's O(t²) pairwise matrix
//! over the whole attack corpus, fall back to pairwise when a module
//! carries no usable `.reloc` table, and agree on the bucket edge cases
//! (all-distinct captures, 2-2 ties). The pairwise matrix must also be
//! unchanged by the scan's grouping of sections that share normalized
//! bytes: every matrix entry, charge and verdict equals comparing each pair
//! alone, and each pair alone equals the paper's own pass, which copies
//! both sections, rewrites them and compares their digests. Likewise every
//! canonical form, and its charge, equals the copy-and-hash pass that
//! normalizes a copy of the whole image by its `.reloc` table.

use std::ops::Range;

use mc_attacks::Technique;
use mc_hypervisor::{AddressWidth, VmId};
use mc_pe::corpus::ModuleBlueprint;
use mc_pe::parser::ParsedModule;
use mc_pe::reloc::{build_reloc_section, parse_reloc_section};
use mc_vmi::VmiSession;
use modchecker::digest::digest;
use modchecker::parts::ExecSection;
use modchecker::{
    adjust_rvas, canonical_form, compare_pair_with, normalize_with_reloc_table, CanonicalForm,
    CaptureCache, CheckConfig, CompareStrategy, DigestAlgo, ExtractedModule, ModChecker,
    ModuleSearcher, PairOutcome, PairScratch, PartId, PoolCheckReport, VerdictStatus,
};
use modchecker_repro::testbed::Testbed;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// .text occupies the image's second page onward (same layout as the
/// `properties` suite's 8 KiB blueprint).
const TEXT_START: u64 = 0x1000;
const TEXT_SAFE_LEN: u64 = 0x1800;

fn bed(n: usize) -> Testbed {
    Testbed::cloud_with(
        n,
        AddressWidth::W32,
        &[ModuleBlueprint::new("hal.dll", AddressWidth::W32, 8 * 1024)],
    )
}

fn check(bed: &Testbed, module: &str, compare: CompareStrategy) -> PoolCheckReport {
    ModChecker::with_config(CheckConfig {
        compare,
        ..CheckConfig::default()
    })
    .check_pool(&bed.hv, &bed.vm_ids, module)
    .expect("pool check")
}

/// The verdict content both strategies must agree on, per VM.
type VerdictKey = (String, VerdictStatus, usize, usize, bool, Vec<PartId>);

fn verdict_keys(report: &PoolCheckReport) -> Vec<VerdictKey> {
    report
        .verdicts
        .iter()
        .map(|v| {
            (
                v.vm_name.clone(),
                v.status,
                v.successes,
                v.comparisons,
                v.clean,
                v.suspect_parts.clone(),
            )
        })
        .collect()
}

/// Runs both strategies and asserts verdict equivalence; returns the pair
/// for extra shape assertions.
fn both_modes(bed: &Testbed, module: &str) -> (PoolCheckReport, PoolCheckReport) {
    let pairwise = check(bed, module, CompareStrategy::Pairwise);
    let canonical = check(bed, module, CompareStrategy::Canonical);
    assert_eq!(
        verdict_keys(&pairwise),
        verdict_keys(&canonical),
        "strategies must return identical verdicts"
    );
    assert_eq!(pairwise.quorum, canonical.quorum);
    (pairwise, canonical)
}

/// Guest `guest`'s loaded image of `module`, read straight from memory.
fn loaded_image(bed: &Testbed, guest: usize, module: &str) -> Vec<u8> {
    let m = bed.guests[guest]
        .find_module(module)
        .expect("module loaded")
        .clone();
    let mut image = vec![0u8; m.size as usize];
    bed.hv
        .vm(bed.vm_ids[guest])
        .unwrap()
        .read_virt(m.base, &mut image)
        .unwrap();
    image
}

/// Overwrites the first reloc block's `BlockSize` with 3 (odd, < 8) on one
/// guest, making `parse_reloc_section` reject the table. Applied to every
/// VM it leaves the pool content-consistent — the corruption is identical
/// everywhere — but denies the canonical path its normalization table.
fn break_reloc_table(bed: &mut Testbed, guest: usize, module: &str) {
    let image = loaded_image(bed, guest, module);
    let parsed = ParsedModule::parse_memory(&image).expect("parse");
    let reloc = parsed.find_section(".reloc").expect("corpus has .reloc");
    let offset = parsed.sections[reloc].data_range.start as u64 + 4;
    bed.guests[guest]
        .patch_module(&mut bed.hv, module, offset, &[3, 0, 0, 0])
        .unwrap();
}

#[test]
fn clean_pool_verdicts_agree_and_canonical_skips_the_matrix() {
    let bed = bed(8);
    let (pairwise, canonical) = both_modes(&bed, "hal.dll");
    assert!(pairwise.all_clean());
    assert!(canonical.all_clean());
    // One bucket → no representative pairs at all, versus the full matrix.
    assert_eq!(pairwise.matrix.len(), 8 * 7 / 2);
    assert!(canonical.matrix.is_empty());
    assert!(
        canonical.times.checker < pairwise.times.checker,
        "canonical checker {} must undercut pairwise {}",
        canonical.times.checker,
        pairwise.times.checker
    );
}

#[test]
fn every_attack_technique_yields_identical_verdicts() {
    for technique in Technique::ALL {
        let (bed, _) = Testbed::infected_cloud(6, technique, &[2]).unwrap();
        let target = technique.infection().target_module().to_string();
        let (pairwise, canonical) = both_modes(&bed, &target);
        let suspects: Vec<&str> = pairwise.suspects().map(|v| v.vm_name.as_str()).collect();
        assert_eq!(suspects, vec!["dom3"], "{technique}");
        assert!(canonical.any_discrepancy(), "{technique}");
    }
}

#[test]
fn worm_majority_infection_yields_identical_verdicts() {
    // 3 of 5 VMs boot the same infected file: no VM reaches a strict
    // majority (infected score 2 of 4, clean score 1 of 4), so both
    // strategies suspect the whole pool — identically, per bucket.
    let (bed, _) = Testbed::infected_cloud(5, Technique::InlineHook, &[0, 1, 2]).unwrap();
    let target = Technique::InlineHook
        .infection()
        .target_module()
        .to_string();
    let (pairwise, canonical) = both_modes(&bed, &target);
    let scores: Vec<(&str, usize)> = pairwise
        .verdicts
        .iter()
        .map(|v| (v.vm_name.as_str(), v.successes))
        .collect();
    assert_eq!(
        scores,
        vec![
            ("dom1", 2),
            ("dom2", 2),
            ("dom3", 2),
            ("dom4", 1),
            ("dom5", 1)
        ]
    );
    assert!(pairwise.verdicts.iter().all(|v| !v.clean));
    // Two buckets (3 infected + 2 clean) → exactly one representative pair.
    assert_eq!(canonical.matrix.len(), 1);
    assert!(canonical.any_discrepancy());
}

#[test]
fn reloc_less_modules_fall_back_to_the_pairwise_matrix() {
    let mut bed = bed(5);
    for guest in 0..5 {
        break_reloc_table(&mut bed, guest, "hal.dll");
    }
    // The corruption alone is pool-consistent: still clean in both modes.
    let (pairwise, canonical) = both_modes(&bed, "hal.dll");
    assert!(pairwise.all_clean() && canonical.all_clean());
    // The fallback ran the full matrix — canonical mode could not bucket.
    assert_eq!(canonical.matrix.len(), 5 * 4 / 2);

    // An infection on top is still caught, identically, through the
    // fallback path.
    bed.guests[3]
        .patch_module(&mut bed.hv, "hal.dll", TEXT_START + 7, &[0xEB, 0xFE])
        .unwrap();
    let (pairwise, canonical) = both_modes(&bed, "hal.dll");
    let suspects: Vec<&str> = pairwise.suspects().map(|v| v.vm_name.as_str()).collect();
    assert_eq!(suspects, vec!["dom4"]);
    assert_eq!(canonical.matrix.len(), 5 * 4 / 2);
}

#[test]
fn all_distinct_captures_suspect_everyone_in_both_modes() {
    let mut bed = bed(4);
    for i in 0..4u64 {
        bed.guests[i as usize]
            .patch_module(
                &mut bed.hv,
                "hal.dll",
                TEXT_START + 16 * i,
                &[0x90 + i as u8],
            )
            .unwrap();
    }
    let (pairwise, canonical) = both_modes(&bed, "hal.dll");
    for v in &pairwise.verdicts {
        assert_eq!(v.status, VerdictStatus::Suspect);
        assert_eq!(v.successes, 0);
    }
    // Four singleton buckets → all C(4,2) representative pairs compared.
    assert_eq!(canonical.matrix.len(), 4 * 3 / 2);
}

#[test]
fn two_two_tie_suspects_everyone_in_both_modes() {
    let mut bed = bed(4);
    for guest in [2usize, 3] {
        bed.guests[guest]
            .patch_module(&mut bed.hv, "hal.dll", TEXT_START + 5, &[0xCC])
            .unwrap();
    }
    let (pairwise, canonical) = both_modes(&bed, "hal.dll");
    for v in &pairwise.verdicts {
        // 1 success of 3 comparisons: no VM reaches a majority.
        assert_eq!(v.status, VerdictStatus::Suspect);
        assert_eq!(v.successes, 1);
        assert_eq!(v.comparisons, 3);
    }
    // Two buckets of two → one representative pair.
    assert_eq!(canonical.matrix.len(), 1);
}

/// The content of one pair outcome.
type PairKey = ((String, String), Vec<PartId>, usize, usize);

fn pair_keys(outcomes: &[PairOutcome]) -> Vec<PairKey> {
    outcomes
        .iter()
        .map(|o| {
            (
                o.vms.clone(),
                o.mismatched.clone(),
                o.slots_adjusted,
                o.residual_diffs,
            )
        })
        .collect()
}

/// The section of `other` paired with `secs[i]`: the same name and the
/// same occurrence among sections of that name.
fn paired_section<'s>(
    secs: &[ExecSection],
    i: usize,
    other: &'s [ExecSection],
) -> Option<&'s ExecSection> {
    let name = &secs[i].name;
    let occurrence = secs[..i].iter().filter(|s| s.name == *name).count();
    other.iter().filter(|s| s.name == *name).nth(occurrence)
}

/// The paper's Integrity-Checker on one pair, built from public items
/// only: header digests merged by part id, executable sections paired by
/// name and occurrence, copied, rewritten by Algorithm 2 (`adjust_rvas`)
/// and compared by digest. The independent reference every
/// `compare_pair_with` outcome must equal.
fn paper_pair(a: &ExtractedModule, b: &ExtractedModule) -> PairOutcome {
    let mut mismatched = Vec::new();
    for (x, y) in [(a, b), (b, a)] {
        for (id, d) in &x.header_hashes {
            if y.header_hashes
                .iter()
                .all(|(other, e)| other != id || e != d)
            {
                mismatched.push(id.clone());
            }
        }
    }
    let (sa, sb) = (&a.parts.exec_sections, &b.parts.exec_sections);
    for i in 0..sb.len() {
        if paired_section(sb, i, sa).is_none() {
            mismatched.push(PartId::SectionData(sb[i].name.clone()));
        }
    }
    let (mut slots_adjusted, mut residual_diffs) = (0, 0);
    for i in 0..sa.len() {
        let Some(s) = paired_section(sa, i, sb) else {
            mismatched.push(PartId::SectionData(sa[i].name.clone()));
            continue;
        };
        let mut x = a.image.bytes[sa[i].range.clone()].to_vec();
        let mut y = b.image.bytes[s.range.clone()].to_vec();
        let stats = adjust_rvas(&mut x, &mut y, a.image.base, b.image.base, a.parts.width);
        slots_adjusted += stats.slots_adjusted;
        residual_diffs += stats.residual_diffs;
        if digest(a.algo, &x) != digest(b.algo, &y) {
            mismatched.push(PartId::SectionData(sa[i].name.clone()));
        }
    }
    mismatched.sort();
    mismatched.dedup();
    PairOutcome {
        vms: (a.image.vm_name.clone(), b.image.vm_name.clone()),
        mismatched,
        slots_adjusted,
        residual_diffs,
    }
}

#[test]
fn compare_pair_with_equals_the_papers_copy_and_hash_pass() {
    const VMS: usize = 15;
    for (k, technique) in Technique::ALL.into_iter().enumerate() {
        let victim = (4 * k + 1) % VMS;
        let (bed, _) = Testbed::infected_cloud(VMS, technique, &[victim]).unwrap();
        let target = technique.infection().target_module().to_string();

        let scan = ModChecker::new()
            .check_pool(&bed.hv, &bed.vm_ids, &target)
            .expect("pool check");
        let suspects: Vec<String> = scan.suspects().map(|v| v.vm_name.clone()).collect();
        assert_eq!(suspects, vec![format!("dom{}", victim + 1)], "{technique}");

        // Every pair through one reused scratch arena, against the paper's
        // pass on the same captures.
        let captures: Vec<ExtractedModule> = bed
            .vm_ids
            .iter()
            .map(|&vm| {
                let mut s = VmiSession::attach(&bed.hv, vm).expect("attach");
                let image = ModuleSearcher::find(&mut s, &target).expect("module listed");
                ExtractedModule::new(image).expect("module parses")
            })
            .collect();
        let mut scratch = PairScratch::new();
        let pairs: Vec<(usize, usize)> = (0..VMS)
            .flat_map(|i| ((i + 1)..VMS).map(move |j| (i, j)))
            .collect();
        let paper: Vec<PairOutcome> = pairs
            .iter()
            .map(|&(i, j)| paper_pair(&captures[i], &captures[j]))
            .collect();
        let alone: Vec<PairOutcome> = pairs
            .iter()
            .map(|&(i, j)| {
                compare_pair_with(&captures[i], &captures[j], None, &mut scratch).unwrap()
            })
            .collect();
        assert_eq!(pair_keys(&alone), pair_keys(&paper), "{technique}");
        assert!(paper.iter().any(|o| !o.matches()), "{technique}");
        assert_eq!(pair_keys(&scan.matrix), pair_keys(&paper), "{technique}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any single-VM .text patch produces identical verdicts under both
    /// strategies (the canonical form's `abs − base` normalization is the
    /// same arithmetic Algorithm 2 applies pairwise).
    #[test]
    fn random_patches_yield_identical_verdicts(
        victim in 0usize..5,
        offset in 0u64..TEXT_SAFE_LEN,
        flips in proptest::collection::vec(1u8..=255, 1..4),
    ) {
        let mut bed = bed(5);
        let base = bed.guests[victim].find_module("hal.dll").unwrap().base;
        let vm = bed.hv.vm(bed.vm_ids[victim]).unwrap();
        let mut original = vec![0u8; flips.len()];
        vm.read_virt(base + TEXT_START + offset, &mut original).unwrap();
        let patched: Vec<u8> = original.iter().zip(&flips).map(|(o, f)| o ^ f).collect();
        bed.guests[victim]
            .patch_module(&mut bed.hv, "hal.dll", TEXT_START + offset, &patched)
            .unwrap();

        let (pairwise, _) = both_modes(&bed, "hal.dll");
        let suspects: Vec<String> = pairwise.suspects().map(|v| v.vm_name.clone()).collect();
        prop_assert_eq!(suspects, vec![format!("dom{}", victim + 1)]);
    }

    /// Clean pools of any size and either digest agree, and the canonical
    /// checker is never slower.
    #[test]
    fn clean_pools_agree_at_any_size(n in 3usize..9, sha in proptest::bool::ANY) {
        let bed = bed(n);
        let digest = if sha {
            DigestAlgo::Sha256
        } else {
            DigestAlgo::Md5
        };
        let pairwise = ModChecker::with_config(CheckConfig {
            compare: CompareStrategy::Pairwise,
            digest,
            ..CheckConfig::default()
        })
        .check_pool(&bed.hv, &bed.vm_ids, "hal.dll")
        .unwrap();
        let canonical = ModChecker::with_config(CheckConfig {
            compare: CompareStrategy::Canonical,
            digest,
            ..CheckConfig::default()
        })
        .check_pool(&bed.hv, &bed.vm_ids, "hal.dll")
        .unwrap();
        prop_assert_eq!(verdict_keys(&pairwise), verdict_keys(&canonical));
        prop_assert!(pairwise.all_clean() && canonical.all_clean());
        prop_assert!(canonical.times.checker <= pairwise.times.checker);
    }
}

// ---------------------------------------------------------------------
// Grouped Algorithm 2: the scan groups sections that share normalized
// bytes and slot list and takes the closed form within a group. Every
// matrix entry, the checker charge and every verdict must equal comparing
// each pair alone through the public, ungrouped `compare_pair_with`.

const GROUPED: &str = "hal.dll";

/// `n` VMs whose module also carries an executable `INIT` section.
fn grouping_bed(n: usize, width: AddressWidth) -> Testbed {
    Testbed::cloud_with(
        n,
        width,
        &[ModuleBlueprint::new(GROUPED, width, 8 * 1024).with_init_section(4 * 1024)],
    )
}

/// The capture of `module` on `vm`, or `None` when it does not parse.
fn capture(bed: &Testbed, vm: VmId, module: &str) -> Option<ExtractedModule> {
    let mut session = VmiSession::attach(&bed.hv, vm).expect("attach");
    let image = ModuleSearcher::find(&mut session, module).ok()?;
    ExtractedModule::new(image).ok()
}

/// Asserts that every pair compared alone equals [`paper_pair`], and that
/// the pool scan's matrix, checker charge and verdicts are those of every
/// pair compared alone, for the uncached scan and for the cached scan (one
/// worker).
fn assert_matrix_is_every_pair_alone(bed: &Testbed, module: &str, label: &str) {
    let report = ModChecker::new()
        .check_pool(&bed.hv, &bed.vm_ids, module)
        .expect("pool check");
    let captures: Vec<(usize, ExtractedModule)> = bed
        .vm_ids
        .iter()
        .enumerate()
        .filter_map(|(idx, &vm)| Some((idx, capture(bed, vm, module)?)))
        .collect();
    assert_eq!(report.scanned, captures.len(), "{label}");
    let mut ledger = VmiSession::attach(&bed.hv, bed.vm_ids[0]).expect("attach");
    ledger.take_elapsed();
    let mut scratch = PairScratch::new();
    let mut pairs = Vec::new();
    let mut alone = Vec::new();
    let mut paper = Vec::new();
    for (k, (i, a)) in captures.iter().enumerate() {
        for (j, b) in &captures[k + 1..] {
            pairs.push((*i, *j));
            alone.push(compare_pair_with(a, b, Some(&mut ledger), &mut scratch).unwrap());
            paper.push(paper_pair(a, b));
        }
    }
    assert_eq!(pair_keys(&alone), pair_keys(&paper), "{label}: paper pass");
    assert_eq!(pair_keys(&report.matrix), pair_keys(&alone), "{label}");
    let mut checker = ledger.take_elapsed();
    for v in &report.per_vm {
        checker += v.times.checker;
    }
    assert_eq!(report.times.checker, checker, "{label}: checker charge");
    for (idx, v) in report.verdicts.iter().enumerate() {
        if v.error.is_some() {
            assert!(captures.iter().all(|(i, _)| *i != idx), "{label}");
            continue;
        }
        let mut successes = 0;
        let mut parts = Vec::new();
        for (&(i, j), o) in pairs.iter().zip(&alone) {
            if i == idx || j == idx {
                if o.matches() {
                    successes += 1;
                } else {
                    parts.extend(o.mismatched.iter().cloned());
                }
            }
        }
        parts.sort();
        parts.dedup();
        let comparisons = captures.len() - 1;
        let status = if successes * 2 > comparisons {
            VerdictStatus::Clean
        } else {
            VerdictStatus::Suspect
        };
        assert_eq!(
            (v.status, v.successes, v.comparisons, &v.suspect_parts),
            (status, successes, comparisons, &parts),
            "{label}: verdict of {}",
            v.vm_name
        );
    }
    let cached = ModChecker::new()
        .check_pool_with_cache(&bed.hv, &bed.vm_ids, module, &mut CaptureCache::new())
        .expect("cached pool check");
    assert_eq!(
        pair_keys(&cached.matrix),
        pair_keys(&alone),
        "{label}: cached"
    );
}

/// The sorted `.reloc` slot RVAs and the section ranges of `module` on
/// guest `guest`.
fn reloc_layout(bed: &Testbed, guest: usize, module: &str) -> (Vec<u32>, ParsedModule) {
    let image = loaded_image(bed, guest, module);
    let parsed = ParsedModule::parse_memory(&image).expect("parse");
    let reloc = parsed.sections[parsed.find_section(".reloc").expect(".reloc")]
        .data_range
        .clone();
    let mut rvas = parse_reloc_section(&image[reloc]).expect("clean table");
    rvas.sort_unstable();
    (rvas, parsed)
}

/// Rewrites the in-memory `.reloc` table of `module` on each of `guests`
/// to the first of `candidates` that fits the section; padding entries
/// appended to the last block take up any slack. Panics when none fits.
fn doctor_reloc(bed: &mut Testbed, guests: &[usize], module: &str, candidates: Vec<Vec<u32>>) {
    let (_, parsed) = reloc_layout(bed, guests[0], module);
    let range = parsed.sections[parsed.find_section(".reloc").unwrap()]
        .data_range
        .clone();
    let table = candidates
        .iter()
        .find_map(|rvas| {
            let mut table = reloc_table(parsed.width, rvas);
            let slack = range.len().checked_sub(table.len())?;
            let (mut at, mut last) = (0, 0);
            while at < table.len() {
                last = at;
                at += u32::from_le_bytes(table[at + 4..at + 8].try_into().unwrap()) as usize;
            }
            let size = (at - last + slack) as u32;
            table[last + 4..last + 8].copy_from_slice(&size.to_le_bytes());
            table.resize(range.len(), 0);
            Some(table)
        })
        .unwrap_or_else(|| {
            panic!(
                "no doctored table fits the section: {} bytes, {} candidates, first {:?}",
                range.len(),
                candidates.len(),
                candidates
                    .first()
                    .map(|c| build_reloc_section(parsed.width, c).len())
            )
        });
    for &g in guests {
        bed.guests[g]
            .patch_module(&mut bed.hv, module, range.start as u64, &table)
            .unwrap();
    }
}

/// The `.reloc` table listing `rvas`: one block per page in address
/// order, then one block for the entries that repeat an earlier one, so
/// each of those is listed twice.
fn reloc_table(width: AddressWidth, rvas: &[u32]) -> Vec<u8> {
    let repeats: Vec<u32> = (0..rvas.len())
        .filter(|&k| rvas[..k].contains(&rvas[k]))
        .map(|k| rvas[k])
        .collect();
    [
        build_reloc_section(width, rvas),
        build_reloc_section(width, &repeats),
    ]
    .concat()
}

/// `rvas` with `extra` added, then with `extra` replacing, in turn, each
/// entry of its page that lies at least 8 bytes away (the same entry
/// count keeps the table's size, and any entry `extra` overlaps stays).
fn with_extra(rvas: &[u32], extra: u32) -> Vec<Vec<u32>> {
    let mut out = vec![[rvas, &[extra]].concat()];
    for k in 0..rvas.len() {
        if rvas[k] & !0xFFF == extra & !0xFFF && rvas[k].abs_diff(extra) >= 8 {
            let mut v = rvas.to_vec();
            v[k] = extra;
            out.push(v);
        }
    }
    out
}

/// The doctored-table edits, each as candidate slot lists: an entry
/// removed, added, shifted by one, overlapping its neighbour, straddling
/// the `.text` end, and a `.text` entry listed twice.
fn reloc_edits(
    rvas: &[u32],
    text: &Range<usize>,
    width: AddressWidth,
) -> Vec<(&'static str, Vec<Vec<u32>>)> {
    let w = width.bytes() as u32;
    let end = text.end as u32;
    let removed = (0..rvas.len())
        .map(|k| [&rvas[..k], &rvas[k + 1..]].concat())
        .collect();
    let added = (1..64)
        .map(|d| text.start as u32 + 3 * d)
        .filter(|x| !rvas.contains(x))
        .flat_map(|x| with_extra(rvas, x))
        .collect();
    let shifted = (0..rvas.len())
        .filter(|&k| !rvas.contains(&(rvas[k] + 1)))
        .map(|k| {
            let mut v = rvas.to_vec();
            v[k] += 1;
            v
        })
        .collect();
    let overlapping = rvas
        .iter()
        .filter(|&&r| !rvas.contains(&(r + 2)))
        .flat_map(|&r| with_extra(rvas, r + 2))
        .collect();
    // No entry shares the page past `.text`, so the straddler opens a new
    // block; dropping the table's last entries makes room for it. The
    // deepest straddle comes first: its rewrite reaches the `.text` bytes
    // above a load base's zero low bytes.
    let straddling = (1..w)
        .rev()
        .flat_map(|d| (0..8).map(move |m| [&rvas[..rvas.len() - m], &[end - d]].concat()))
        .collect();
    // The repeat takes a block of its own, made room for the same way.
    let first = rvas[rvas.partition_point(|&r| (r as usize) < text.start)];
    let duplicated = (0..8)
        .map(|m| [&rvas[..rvas.len() - m], &[first]].concat())
        .collect();
    vec![
        ("removed", removed),
        ("added", added),
        ("shifted", shifted),
        ("overlapping", overlapping),
        ("straddling", straddling),
        ("duplicated", duplicated),
    ]
}

/// One seeded `pe_fuzz`-style mutant planted in `guest`: header-region
/// bit flips, garbage over the `.reloc` payload, or a flipped `.text`
/// byte.
fn plant_mutant(bed: &mut Testbed, guest: usize, module: &str, rng: &mut StdRng) -> &'static str {
    let image = loaded_image(bed, guest, module);
    let parsed = ParsedModule::parse_memory(&image).expect("parse");
    let (kind, range) = match rng.random_range(0..3u32) {
        0 => ("header", 0..image.len().min(0x400)),
        1 => (
            ".reloc",
            parsed.sections[parsed.find_section(".reloc").unwrap()]
                .data_range
                .clone(),
        ),
        _ => (
            ".text",
            parsed.sections[parsed.find_section(".text").unwrap()]
                .data_range
                .clone(),
        ),
    };
    for _ in 0..rng.random_range(1..=4usize) {
        let at = range.start + rng.random_range(0..range.len());
        let flip = rng.random_range(1..=u64::from(u8::MAX)) as u8;
        bed.guests[guest]
            .patch_module(&mut bed.hv, module, at as u64, &[image[at] ^ flip])
            .unwrap();
    }
    kind
}

#[test]
fn grouped_pairwise_matrix_equals_every_pair_compared_alone() {
    for width in [AddressWidth::W32, AddressWidth::W64] {
        // A clean pool: one group per section.
        let mut bed = grouping_bed(5, width);
        assert_matrix_is_every_pair_alone(&bed, GROUPED, &format!("{width:?} clean"));

        // Identical bases: a cloned VM holds the module at its source's base.
        let clone = bed.hv.clone_vm(bed.vm_ids[0], "dom-clone").unwrap();
        bed.vm_ids.push(clone);
        assert_matrix_is_every_pair_alone(&bed, GROUPED, &format!("{width:?} cloned base"));

        // A runtime patch makes a second group.
        bed.guests[1]
            .patch_module(&mut bed.hv, GROUPED, 0x1000 + 9, &[0xCC])
            .unwrap();
        assert_matrix_is_every_pair_alone(&bed, GROUPED, &format!("{width:?} patched"));

        // Doctored `.reloc`, on one VM and on every VM alike.
        let (rvas, parsed) = reloc_layout(&bed, 0, GROUPED);
        let text = parsed.sections[parsed.find_section(".text").unwrap()]
            .data_range
            .clone();
        for (edit, candidates) in reloc_edits(&rvas, &text, width) {
            for guests in [vec![2], (0..5).collect::<Vec<_>>()] {
                let mut bed = grouping_bed(5, width);
                doctor_reloc(&mut bed, &guests, GROUPED, candidates.clone());
                let label = format!("{width:?} reloc {edit} on {guests:?}");
                assert_matrix_is_every_pair_alone(&bed, GROUPED, &label);
            }
        }

        // Unequal section lengths: one VM's `.text` header claims 16
        // bytes less.
        let mut bed = grouping_bed(5, width);
        let header = parsed.sections[parsed.find_section(".text").unwrap()]
            .header_range
            .clone();
        let size = parsed.sections[parsed.find_section(".text").unwrap()].virtual_size - 16;
        bed.guests[3]
            .patch_module(
                &mut bed.hv,
                GROUPED,
                header.start as u64 + 8,
                &size.to_le_bytes(),
            )
            .unwrap();
        assert_matrix_is_every_pair_alone(&bed, GROUPED, &format!("{width:?} short .text"));

        // A duplicate-named executable section: `INIT` renamed `.text`,
        // on one VM and then on all but one.
        let init = parsed.sections[parsed.find_section("INIT").unwrap()]
            .header_range
            .clone();
        let mut bed = grouping_bed(5, width);
        for g in 0..4 {
            bed.guests[g]
                .patch_module(&mut bed.hv, GROUPED, init.start as u64, b".text\0\0\0")
                .unwrap();
            let label = format!("{width:?} duplicate .text on {} VMs", g + 1);
            assert_matrix_is_every_pair_alone(&bed, GROUPED, &label);
        }
    }

    // `pe_fuzz`-style mutants, one per pool.
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6A0B);
        let mut bed = grouping_bed(4, AddressWidth::W32);
        let victim = rng.random_range(0..4usize);
        let kind = plant_mutant(&mut bed, victim, GROUPED, &mut rng);
        let label = format!("seed {seed}: {kind} mutant on guest {victim}");
        assert_matrix_is_every_pair_alone(&bed, GROUPED, &label);
    }

    // Every file-level technique on the standard corpus.
    for technique in Technique::COMPLETE {
        let (bed, _) = Testbed::infected_cloud(6, technique, &[2]).unwrap();
        let target = technique.infection().target_module().to_string();
        assert_matrix_is_every_pair_alone(&bed, &target, &format!("{technique}"));
    }
}

// ---------------------------------------------------------------------
// Canonical forms: each executable-section digest is streamed from the
// scan's section grouping where the section's `.reloc` entries are
// exactly its slots, and hashed from a normalized copy elsewhere. Every
// form and its charge must equal the copy-and-hash pass.

/// The canonical form as the copy-and-hash pass computes it, built from
/// public items only: the image cloned, normalized by its whole `.reloc`
/// table in table order, and each executable section hashed. Charges
/// `ledger` for that work as `canonical_form` does. The independent
/// reference every `canonical_form` must equal.
fn copy_and_hash(m: &ExtractedModule, ledger: &mut VmiSession<'_>) -> Option<CanonicalForm> {
    let parsed = ParsedModule::parse_memory(&m.image.bytes).ok()?;
    let reloc_len = parsed.sections[parsed.find_section(".reloc")?]
        .data_range
        .len();
    let mut bytes = m.image.bytes.clone();
    let slots_normalized = normalize_with_reloc_table(&mut bytes, m.image.base, &parsed)?;
    let mut part_digests = m.header_hashes.clone();
    for s in &m.parts.exec_sections {
        let d = digest(m.algo, &bytes[s.range.clone()]);
        part_digests.push((PartId::SectionData(s.name.clone()), d));
    }
    part_digests.sort_by(|x, y| x.0.cmp(&y.0));
    let cost = *ledger.cost_model();
    let exec_len: usize = m.parts.exec_sections.iter().map(|s| s.range.len()).sum();
    ledger.charge_process(cost.parse_byte_ns, reloc_len as u64);
    let rewritten = slots_normalized * m.parts.width.bytes();
    ledger.charge_process(cost.diff_byte_ns, rewritten as u64);
    ledger.charge_process(cost.hash_byte_ns * m.algo.cost_factor(), exec_len as u64);
    Some(CanonicalForm {
        part_digests,
        slots_normalized,
        algo: m.algo,
    })
}

/// Asserts that every VM's capture of `module`, under MD5 and under
/// SHA-256, has the canonical form and the charge of [`copy_and_hash`].
fn assert_canonical_is_copy_and_hash(bed: &Testbed, module: &str, label: &str) {
    let mut ledger = VmiSession::attach(&bed.hv, bed.vm_ids[0]).expect("attach");
    for algo in [DigestAlgo::Md5, DigestAlgo::Sha256] {
        for &vm in &bed.vm_ids {
            let mut session = VmiSession::attach(&bed.hv, vm).expect("attach");
            let Ok(image) = ModuleSearcher::find(&mut session, module) else {
                continue;
            };
            let Ok(m) = ExtractedModule::with_algo(image, algo) else {
                continue;
            };
            ledger.take_elapsed();
            let form = canonical_form(&m, Some(&mut ledger));
            let charged = ledger.take_elapsed();
            let reference = copy_and_hash(&m, &mut ledger);
            let label = format!("{label}: {algo} on {vm:?}");
            assert_eq!(form, reference, "{label}");
            assert_eq!(charged, ledger.take_elapsed(), "{label}: charge");
        }
    }
}

#[test]
fn canonical_forms_equal_the_copy_and_hash_pass() {
    for width in [AddressWidth::W32, AddressWidth::W64] {
        let bed = grouping_bed(5, width);
        assert_canonical_is_copy_and_hash(&bed, GROUPED, &format!("{width:?} clean"));

        // Doctored `.reloc`, on one VM and on every VM alike.
        let (rvas, parsed) = reloc_layout(&bed, 0, GROUPED);
        let text = parsed.sections[parsed.find_section(".text").unwrap()]
            .data_range
            .clone();
        for (edit, candidates) in reloc_edits(&rvas, &text, width) {
            for guests in [vec![2], (0..5).collect::<Vec<_>>()] {
                let mut bed = grouping_bed(5, width);
                doctor_reloc(&mut bed, &guests, GROUPED, candidates.clone());
                let label = format!("{width:?} reloc {edit} on {guests:?}");
                assert_canonical_is_copy_and_hash(&bed, GROUPED, &label);
            }
        }

        // `pe_fuzz`-style mutants, one per pool.
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
            let mut bed = grouping_bed(4, width);
            let victim = rng.random_range(0..4usize);
            let kind = plant_mutant(&mut bed, victim, GROUPED, &mut rng);
            let label = format!("{width:?} seed {seed}: {kind} mutant on guest {victim}");
            assert_canonical_is_copy_and_hash(&bed, GROUPED, &label);
        }
    }

    // Every attack technique on the standard corpus.
    for technique in Technique::ALL {
        let (bed, _) = Testbed::infected_cloud(6, technique, &[2]).unwrap();
        let target = technique.infection().target_module().to_string();
        assert_canonical_is_copy_and_hash(&bed, &target, &format!("{technique}"));
    }
}
