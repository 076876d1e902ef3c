//! Quickstart: build a small cloud, check a module, infect a VM, re-check.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use modchecker::ModChecker;
use modchecker_repro::testbed::Testbed;

fn main() {
    // 1. Build a cloud of five identical Windows-XP-like guests, as the
    //    paper clones Dom1..Dom15 from a single installation. Each VM loads
    //    the same module files at VM-specific base addresses.
    println!("building a 5-VM cloud with the standard module corpus...");
    let mut bed = Testbed::small_cloud(5);
    for g in &bed.guests {
        let hal = g.find_module("hal.dll").unwrap();
        println!(
            "  {}: hal.dll loaded at base {:#010x}",
            bed.hv.vm(g.vm).unwrap().name,
            hal.base
        );
    }

    // 2. Check hal.dll across the pool: despite the different bases (and
    //    therefore different in-memory bytes at every relocated address),
    //    RVA adjustment reconciles the images and everything matches.
    let checker = ModChecker::new();
    let report = checker.check_pool(&bed.hv, &bed.vm_ids, "hal.dll").unwrap();
    println!("\nclean cloud:\n{report}");
    assert!(report.all_clean());

    // 3. Infect one VM in memory — a one-byte opcode patch inside .text,
    //    the paper's §V.B.1 scenario — and check again.
    println!("patching one opcode inside dom3's hal.dll .text ...");
    bed.guests[2]
        .patch_module(&mut bed.hv, "hal.dll", 0x1003, &[0xCC])
        .unwrap();
    let report = checker.check_pool(&bed.hv, &bed.vm_ids, "hal.dll").unwrap();
    println!("\nafter infection:\n{report}");
    assert!(!report.all_clean());
    let suspects: Vec<&str> = report.suspects().map(|v| v.vm_name.as_str()).collect();
    println!("flagged VMs: {suspects:?}");
    assert_eq!(suspects, vec!["dom3"]);
}
