//! Continuous monitoring with snapshot-revert remediation — the
//! operational loop the paper's §III discussion sketches.
//!
//! A monitor thread scans the pool round after round and streams events;
//! the operator thread reacts to a discrepancy by reverting the flagged VM
//! to its clean snapshot.
//!
//! ```text
//! cargo run --example continuous_monitoring
//! ```

use crossbeam::channel::unbounded;
use modchecker::{remediate, ContinuousMonitor, MonitorConfig, MonitorEvent};
use modchecker_repro::testbed::Testbed;

fn main() {
    let mut bed = Testbed::small_cloud(6);

    // Operators snapshot at provision time.
    for id in bed.vm_ids.clone() {
        bed.hv.vm_mut(id).unwrap().snapshot("clean");
    }

    // A rootkit lands on dom5 between rounds 0 and 1 — simulated by
    // patching before we start and only scanning hal.dll in round 0.
    bed.guests[4]
        .patch_module(
            &mut bed.hv,
            "http.sys",
            0x1010,
            &[0xE9, 0x10, 0x00, 0x00, 0x00],
        )
        .unwrap();

    let mut monitor = ContinuousMonitor::new(MonitorConfig {
        modules: vec!["hal.dll".into(), "http.sys".into(), "dummy.sys".into()],
        ..MonitorConfig::default()
    });

    let (tx, rx) = unbounded();
    let hv = &bed.hv;
    let ids = bed.vm_ids.clone();
    let mut pending_remediation = None;

    crossbeam::scope(|s| {
        let sender = tx.clone();
        let m = &mut monitor;
        s.spawn(move |_| m.run(hv, &ids, 2, &sender));
        drop(tx);

        for event in &rx {
            match event {
                MonitorEvent::Clean { round, module } => {
                    println!("round {round}: {module:<12} clean");
                }
                MonitorEvent::Discrepancy { round, module, report } => {
                    let suspects: Vec<String> =
                        report.suspects().map(|v| v.vm_name.clone()).collect();
                    println!(
                        "round {round}: {module:<12} DISCREPANCY on {suspects:?} — scheduling revert"
                    );
                    pending_remediation = Some((module, report));
                }
                MonitorEvent::Failed { round, module, error } => {
                    println!("round {round}: {module:<12} check failed: {error}");
                }
                MonitorEvent::Degraded { round, module, report } => {
                    println!(
                        "round {round}: {module:<12} degraded ({} quorum)",
                        report.quorum
                    );
                }
                MonitorEvent::VmQuarantined { round, vm_name, .. } => {
                    println!("round {round}: circuit breaker quarantined {vm_name}");
                }
                MonitorEvent::VmRestored { round, vm_name } => {
                    println!("round {round}: re-probing {vm_name}");
                }
            }
        }
    })
    .unwrap();

    // Remediate after the monitor finishes (it borrows the host immutably).
    let (module, report) = pending_remediation.expect("the infection must be detected");
    let reverted = remediate(&mut bed.hv, &report, "clean").unwrap();
    println!("\nreverted {reverted:?} to snapshot 'clean'");

    let verify = ContinuousMonitor::new(MonitorConfig {
        modules: vec![module],
        ..MonitorConfig::default()
    });
    let round = verify.run_round(&bed.hv, &bed.vm_ids);
    let all_clean = round.iter().all(|(_, r)| r.as_ref().unwrap().all_clean());
    println!("post-remediation scan clean: {all_clean}");
    assert!(all_clean);
}
