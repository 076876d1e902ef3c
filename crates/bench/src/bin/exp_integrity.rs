//! EXP-B1..B4 — the integrity-checking experiments of §V.B, as a
//! paper-vs-measured table.
//!
//! For each technique the harness builds a 15-VM cloud (the paper's scale)
//! with one infected VM, runs ModChecker, and reports the flagged part set
//! next to the set the paper states. The run fails loudly if any technique
//! is missed or over-flagged.
//!
//! Pass `--worm` to additionally run the §III majority-infection scenario.

use mc_attacks::{worm, Technique};
use modchecker::ModChecker;
use modchecker_repro::testbed::Testbed;

fn main() {
    let run_worm = std::env::args().any(|a| a == "--worm");
    let checker = ModChecker::new();
    let victim = 7usize; // dom8

    println!("EXP-B1..B4: detection matrix at the paper's 15-VM scale\n");
    println!(
        "{:<42} {:<16} {:<9} flagged parts (= paper's set)",
        "technique", "module", "detected"
    );

    for technique in Technique::ALL {
        let infection = technique.infection();
        let module = infection.target_module().to_string();
        let (bed, expected) =
            Testbed::infected_cloud(15, technique, &[victim]).expect("infection applies");

        let report = checker
            .check_pool(&bed.hv, &bed.vm_ids, &module)
            .expect("pool check");
        let suspects: Vec<String> = report.suspects().map(|v| v.vm_name.clone()).collect();
        let detected = suspects == vec!["dom8".to_string()];
        let flagged = report
            .suspects()
            .next()
            .map(|v| v.suspect_parts.clone())
            .unwrap_or_default();

        let parts: Vec<String> = flagged.iter().map(ToString::to_string).collect();
        println!(
            "{:<42} {:<16} {:<9} {}",
            technique.to_string(),
            module,
            if detected { "yes" } else { "NO" },
            parts.join(", ")
        );
        assert!(detected, "{technique}: wrong suspects {suspects:?}");
        assert_eq!(
            flagged, expected,
            "{technique}: flag set differs from paper"
        );
    }

    println!("\nall four techniques detected with paper-exact mismatch sets.");

    if run_worm {
        println!("\n--worm: majority infection (§III discussion)");
        let mut bed = Testbed::cloud(15);
        let bp = mc_pe::corpus::standard_corpus(bed.width)
            .into_iter()
            .find(|b| b.name == "hal.dll")
            .expect("hal.dll in corpus");
        let infection = Technique::InlineHook.infection();
        let victims =
            worm::infect_fraction(&mut bed.hv, &bed.guests, &*infection, &bp.generate(), 0.6)
                .expect("worm applies");
        println!("  infected {} of 15 VMs", victims.len());

        let report = checker
            .check_pool(&bed.hv, &bed.vm_ids, "hal.dll")
            .expect("pool check");
        let flagged: Vec<String> = report.suspects().map(|v| v.vm_name.clone()).collect();
        println!("  majority vote now favors the worm; flagged: {flagged:?}");
        println!(
            "  pool-wide discrepancy signal: {}",
            report.any_discrepancy()
        );
        assert!(report.any_discrepancy());
        println!("  as the paper argues: the discrepancy survives even when the vote fails.");
    }
}
