//! Equivalence of the two comparison strategies: the canonical-form O(t)
//! path must return the same verdicts as the paper's O(t²) pairwise matrix
//! over the whole attack corpus, fall back to pairwise when a module
//! carries no usable `.reloc` table, and agree on the bucket edge cases
//! (all-distinct captures, 2-2 ties). The pairwise matrix must also be
//! unchanged by the per-capture memo of adjusted-section digests.

use mc_attacks::Technique;
use mc_hypervisor::AddressWidth;
use mc_pe::corpus::ModuleBlueprint;
use mc_vmi::VmiSession;
use modchecker::{
    compare_pair, compare_pair_with, CheckConfig, CompareStrategy, ExtractedModule, ModChecker,
    ModuleSearcher, PairOutcome, PairScratch, PartId, PoolCheckReport, VerdictStatus,
};
use modchecker_repro::testbed::Testbed;
use proptest::prelude::*;

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

/// Overwrites the first reloc block's `BlockSize` with 3 (odd, < 8) on one
/// guest, making `parse_reloc_section` reject the table. Applied to every
/// VM it leaves the pool content-consistent — the corruption is identical
/// everywhere — but denies the canonical path its normalization table.
fn break_reloc_table(bed: &mut Testbed, guest: usize, module: &str) {
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
    let parsed = mc_pe::parser::ParsedModule::parse_memory(&image).expect("parse");
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

#[test]
fn adjusted_digest_memos_leave_the_pairwise_matrix_unchanged() {
    const VMS: usize = 15;
    for (k, technique) in Technique::ALL.into_iter().enumerate() {
        let victim = (4 * k + 1) % VMS;
        let (bed, _) = Testbed::infected_cloud(VMS, technique, &[victim]).unwrap();
        let target = technique.infection().target_module().to_string();

        // The pool scan shares captures, and their memos, across pairs.
        let scan = ModChecker::new()
            .check_pool(&bed.hv, &bed.vm_ids, &target)
            .expect("pool check");
        let suspects: Vec<String> = scan.suspects().map(|v| v.vm_name.clone()).collect();
        assert_eq!(suspects, vec![format!("dom{}", victim + 1)], "{technique}");

        // The same matrix from captures that carry memos across the sweep
        // (twice: the second pass meets memos a full sweep left behind) and
        // from fresh, unmemoized clones for every pair.
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
        let fresh: Vec<PairOutcome> = pairs
            .iter()
            .map(|&(i, j)| compare_pair(&captures[i].clone(), &captures[j].clone(), None).unwrap())
            .collect();
        for pass in 0..2 {
            let memoized: Vec<PairOutcome> = pairs
                .iter()
                .map(|&(i, j)| {
                    compare_pair_with(&captures[i], &captures[j], None, &mut scratch).unwrap()
                })
                .collect();
            assert_eq!(
                pair_keys(&memoized),
                pair_keys(&fresh),
                "{technique}, pass {pass}"
            );
        }
        assert_eq!(pair_keys(&scan.matrix), pair_keys(&fresh), "{technique}");
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
            modchecker::DigestAlgo::Sha256
        } else {
            modchecker::DigestAlgo::Md5
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
