//! Whole-pool sweep (extension EXT-2): cross-compare the module *lists*
//! first, then content-check every consensus module — the operation a
//! cloud operator would schedule nightly.
//!
//! Demonstrates two detections the single-module API cannot make on its
//! own: a DKOM-hidden module (missing from one VM's list) and an implanted
//! driver (present on one VM only).
//!
//! ```text
//! cargo run --release --example pool_sweep
//! ```

use mc_pe::corpus::ModuleBlueprint;
use modchecker::{ListAnomaly, ModChecker};
use modchecker_repro::testbed::Testbed;

fn main() {
    let mut bed = Testbed::small_cloud(6);

    // A rootkit hides itself from dom3's module list (DKOM)...
    bed.guests[2].dkom_hide(&mut bed.hv, "http.sys").unwrap();
    // ...and an implant driver appears on dom5 only.
    let implant = ModuleBlueprint::new("implant.sys", bed.width, 8 * 1024)
        .build()
        .unwrap();
    bed.guests[4]
        .load(&mut bed.hv, "implant.sys", &implant, 0xF7F4_0000)
        .unwrap();
    // Plus a classic in-memory code patch on dom6's hal.dll.
    bed.guests[5]
        .patch_module(&mut bed.hv, "hal.dll", 0x1005, &[0xEB, 0x10])
        .unwrap();

    let (lists, reports) = ModChecker::new()
        .check_all_modules(&bed.hv, &bed.vm_ids)
        .unwrap();

    println!("{lists}");
    assert!(!lists.consistent());
    let mut hidden_seen = false;
    let mut implant_seen = false;
    for anomaly in &lists.anomalies {
        match anomaly {
            ListAnomaly::MissingOn { module, vms, .. } => {
                hidden_seen = module == "http.sys" && vms == &vec!["dom3".to_string()];
            }
            ListAnomaly::ExtraOn { module, vms, .. } => {
                implant_seen = module == "implant.sys" && vms == &vec!["dom5".to_string()];
            }
        }
    }
    assert!(hidden_seen, "DKOM hiding detected via list diff");
    assert!(implant_seen, "implant detected via list diff");

    println!("content checks over the consensus module set:");
    let mut patched_seen = false;
    for (module, result) in &reports {
        let report = result.as_ref().expect("per-module checks succeed here");
        let verdict = if report.all_clean() {
            "clean".into()
        } else {
            let suspects: Vec<String> = report.suspects().map(|v| v.vm_name.clone()).collect();
            if module == "hal.dll" {
                patched_seen = suspects == vec!["dom6".to_string()];
            }
            format!("DISCREPANCY {suspects:?}")
        };
        println!("  {module:<16} {verdict}");
    }
    assert!(patched_seen, "code patch detected via content check");

    println!("\nall three infection classes surfaced in one sweep.");
}
