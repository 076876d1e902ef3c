//! Cross-VM consistency properties of a clean cloud.

use mc_hypervisor::{AddressWidth, SimDuration};
use mc_pe::corpus::ModuleBlueprint;
use modchecker::ModChecker;
use modchecker_repro::testbed::Testbed;

fn small_corpus(width: AddressWidth) -> Vec<ModuleBlueprint> {
    vec![
        ModuleBlueprint::new("hal.dll", width, 16 * 1024),
        ModuleBlueprint::new("ndis.sys", width, 12 * 1024),
        ModuleBlueprint::new("http.sys", width, 24 * 1024),
    ]
}

#[test]
fn every_module_clean_across_clean_cloud() {
    let bed = Testbed::cloud_with(6, AddressWidth::W32, &small_corpus(AddressWidth::W32));
    for module in ["hal.dll", "ndis.sys", "http.sys"] {
        let report = ModChecker::new()
            .check_pool(&bed.hv, &bed.vm_ids, module)
            .unwrap();
        assert!(report.all_clean(), "{module} flagged on a clean cloud");
        assert!(!report.any_discrepancy(), "{module}");
        // Every pair reconciled at least one relocation slot (bases are
        // distinct with overwhelming probability across 6 VMs).
        assert!(report.matrix.iter().any(|o| o.slots_adjusted > 0));
    }
}

#[test]
fn sixty_four_bit_cloud_is_equally_checkable() {
    let bed = Testbed::cloud_with(5, AddressWidth::W64, &small_corpus(AddressWidth::W64));
    let report = ModChecker::new()
        .check_pool(&bed.hv, &bed.vm_ids, "http.sys")
        .unwrap();
    assert!(report.all_clean());

    // And infections are detected identically.
    let bed = {
        let mut bed = bed;
        bed.guests[2]
            .patch_module(&mut bed.hv, "http.sys", 0x1001, &[0xCC, 0xCC])
            .unwrap();
        bed
    };
    let report = ModChecker::new()
        .check_pool(&bed.hv, &bed.vm_ids, "http.sys")
        .unwrap();
    let suspects: Vec<&str> = report.suspects().map(|v| v.vm_name.as_str()).collect();
    assert_eq!(suspects, vec!["dom3"]);
}

#[test]
fn component_times_shape_matches_paper() {
    // Searcher dominates; all components grow with VM count (Figure 7's
    // qualitative content, asserted here; the bench regenerates the curve).
    let bed = Testbed::cloud_with(10, AddressWidth::W32, &small_corpus(AddressWidth::W32));
    let mut prev_total = SimDuration::ZERO;
    for n in [2usize, 5, 10] {
        let ids = &bed.vm_ids[..n];
        let report = ModChecker::new()
            .check_one(&bed.hv, ids[0], &ids[1..], "http.sys")
            .unwrap();
        assert!(report.times.searcher > report.times.parser);
        assert!(report.times.searcher > report.times.checker);
        let total = report.times.total();
        assert!(total > prev_total, "runtime grows with VM count");
        prev_total = total;
    }
}

#[test]
fn reference_choice_does_not_change_clean_verdicts() {
    let bed = Testbed::cloud_with(5, AddressWidth::W32, &small_corpus(AddressWidth::W32));
    for r in 0..5 {
        let report = ModChecker::new()
            .check_one(&bed.hv, bed.vm_ids[r], &bed.peers_of(r), "hal.dll")
            .unwrap();
        assert!(report.clean, "reference dom{}", r + 1);
    }
}

#[test]
fn multiple_executable_sections_are_hashed_independently() {
    // A driver with .text + INIT: a patch in INIT flags INIT's data part,
    // not .text's — part-level localization across several exec sections.
    let width = AddressWidth::W32;
    let bp = ModuleBlueprint::new("drv.sys", width, 16 * 1024).with_init_section(8 * 1024);
    let mut bed = Testbed::cloud_with(4, width, std::slice::from_ref(&bp));

    let clean = ModChecker::new()
        .check_pool(&bed.hv, &bed.vm_ids, "drv.sys")
        .unwrap();
    assert!(clean.all_clean(), "both exec sections reconcile when clean");

    // Locate INIT's VA from the captured image geometry (ground truth).
    let file = bp.build().unwrap();
    let parsed = mc_pe::parser::ParsedModule::parse_file(file.bytes()).unwrap();
    let init = &parsed.sections[parsed.find_section("INIT").unwrap()];
    // Pick an offset clear of relocation slots so only INIT content flips.
    let mut off = init.virtual_address as u64 + 7;
    while file
        .reloc_rvas()
        .iter()
        .any(|&r| (r as u64..r as u64 + 4).contains(&off))
    {
        off += 1;
    }
    bed.guests[2]
        .patch_module(&mut bed.hv, "drv.sys", off, &[0xCC])
        .unwrap();

    let report = ModChecker::new()
        .check_pool(&bed.hv, &bed.vm_ids, "drv.sys")
        .unwrap();
    let victim = report.suspects().next().expect("dom3 flagged");
    assert_eq!(victim.vm_name, "dom3");
    assert_eq!(
        victim.suspect_parts,
        vec![modchecker::PartId::SectionData("INIT".into())],
        "INIT flagged; .text not"
    );
}

#[test]
fn version_skew_is_flagged_as_the_assumptions_require() {
    // The paper's §III assumption: the pool runs "the same version of the
    // operating system". A VM whose hal.dll is a different build (here: a
    // different generation seed, standing in for an updated driver) is
    // indistinguishable from an infected one — ModChecker flags it, which
    // operationally means "keep module versions homogeneous or expect
    // alarms". The paper's intro motivates exactly this: hash databases
    // are cumbersome *because* of legitimate updates.
    let width = AddressWidth::W32;
    let v1 = ModuleBlueprint::new("hal.dll", width, 16 * 1024);
    let mut v2 = ModuleBlueprint::new("hal.dll", width, 16 * 1024);
    v2.seed ^= 0xBAD_5EED;

    let mut hv = mc_hypervisor::Hypervisor::new();
    let mut ids = Vec::new();
    for i in 0..5usize {
        let vm = hv.create_vm(&format!("dom{}", i + 1), width).unwrap();
        let bp = if i == 2 { v2.clone() } else { v1.clone() };
        let corpus = vec![("hal.dll".to_string(), bp.build().unwrap())];
        mc_guest::GuestOs::install_with_modules(&mut hv, vm, &corpus, i as u64 + 1).unwrap();
        ids.push(vm);
    }

    let report = ModChecker::new().check_pool(&hv, &ids, "hal.dll").unwrap();
    let suspects: Vec<&str> = report.suspects().map(|v| v.vm_name.as_str()).collect();
    assert_eq!(suspects, vec!["dom3"]);
}

#[test]
fn legitimately_unloaded_module_is_an_anomaly_not_a_crash() {
    let mut bed = Testbed::cloud_with(4, AddressWidth::W32, &small_corpus(AddressWidth::W32));
    bed.guests[1].unload(&mut bed.hv, "ndis.sys").unwrap();
    // Per-module check: the unloaded VM is a failed comparison.
    let report = ModChecker::new()
        .check_pool(&bed.hv, &bed.vm_ids, "ndis.sys")
        .unwrap();
    assert!(report.any_discrepancy());
    let bad = report
        .verdicts
        .iter()
        .find(|v| v.vm_name == "dom2")
        .unwrap();
    assert!(bad.error.is_some());
    // List diff reports it missing.
    let lists = modchecker::ListDiff::scan(&bed.hv, &bed.vm_ids).unwrap();
    assert!(!lists.consistent());
}

#[test]
fn distinct_modules_have_distinct_content() {
    // Sanity: the corpus generator must not emit identical modules (the
    // checker would trivially pass otherwise).
    let bed = Testbed::cloud_with(2, AddressWidth::W32, &small_corpus(AddressWidth::W32));
    let g = &bed.guests[0];
    let hal = g.find_module("hal.dll").unwrap();
    let ndis = g.find_module("ndis.sys").unwrap();
    let vm = bed.hv.vm(g.vm).unwrap();
    let mut a = vec![0u8; 4096];
    let mut b = vec![0u8; 4096];
    vm.read_virt(hal.base + 0x1000, &mut a).unwrap();
    vm.read_virt(ndis.base + 0x1000, &mut b).unwrap();
    assert_ne!(a, b);
}
