//! Continuous monitoring + remediation, and worm-regime behaviour,
//! end to end across crates.

use crossbeam::channel::unbounded;
use mc_attacks::{worm, Technique};
use mc_hypervisor::{AddressWidth, FaultPlan};
use mc_pe::corpus::ModuleBlueprint;
use modchecker::{
    remediate, ContinuousMonitor, HealthPolicy, ModChecker, MonitorConfig, MonitorEvent,
};
use modchecker_repro::testbed::Testbed;

fn blueprints() -> Vec<ModuleBlueprint> {
    let w = AddressWidth::W32;
    vec![
        ModuleBlueprint::new("hal.dll", w, 16 * 1024),
        ModuleBlueprint::new("tcpip.sys", w, 16 * 1024),
    ]
}

#[test]
fn detect_remediate_verify_cycle() {
    // 7 VMs, 2 infected: clean VMs match 4 of 6 (> 3) and stay clean, so
    // the verdict isolates exactly the two victims.
    let mut bed = Testbed::cloud_with(7, AddressWidth::W32, &blueprints());
    for id in &bed.vm_ids {
        bed.hv.vm_mut(*id).unwrap().snapshot("clean");
    }

    // Infect two VMs in memory (a TCPIRPHOOK-style runtime hook).
    for i in [1usize, 3] {
        bed.guests[i]
            .patch_module(
                &mut bed.hv,
                "tcpip.sys",
                0x100B,
                &[0xE9, 0x44, 0x01, 0x00, 0x00],
            )
            .unwrap();
    }

    let monitor = ContinuousMonitor::new(MonitorConfig {
        modules: vec!["hal.dll".into(), "tcpip.sys".into()],
        ..MonitorConfig::default()
    });

    let round = monitor.run_round(&bed.hv, &bed.vm_ids);
    let tcpip_report = round
        .iter()
        .find(|(m, _)| m == "tcpip.sys")
        .unwrap()
        .1
        .as_ref()
        .unwrap();
    let suspects: Vec<&str> = tcpip_report
        .suspects()
        .map(|v| v.vm_name.as_str())
        .collect();
    assert_eq!(suspects, vec!["dom2", "dom4"]);

    let reverted = remediate(&mut bed.hv, tcpip_report, "clean").unwrap();
    assert_eq!(reverted, vec!["dom2", "dom4"]);

    let round2 = monitor.run_round(&bed.hv, &bed.vm_ids);
    for (module, result) in round2 {
        assert!(result.unwrap().all_clean(), "{module} dirty after revert");
    }
}

#[test]
fn threaded_monitor_streams_events() {
    let mut bed = Testbed::cloud_with(4, AddressWidth::W32, &blueprints());
    bed.guests[0]
        .patch_module(&mut bed.hv, "hal.dll", 0x1002, &[0x90])
        .unwrap();

    let mut monitor = ContinuousMonitor::new(MonitorConfig {
        modules: vec!["hal.dll".into(), "tcpip.sys".into()],
        ..MonitorConfig::default()
    });
    let (tx, rx) = unbounded();
    let hv = &bed.hv;
    let ids = bed.vm_ids.clone();
    crossbeam::scope(|s| {
        let sender = tx.clone();
        s.spawn(move |_| monitor.run(hv, &ids, 3, &sender));
        drop(tx);
        let mut discrepancies = 0;
        let mut cleans = 0;
        for event in &rx {
            match event {
                MonitorEvent::Discrepancy { module, .. } => {
                    assert_eq!(module, "hal.dll");
                    discrepancies += 1;
                }
                MonitorEvent::Clean { module, .. } => {
                    assert_eq!(module, "tcpip.sys");
                    cleans += 1;
                }
                other => panic!("unexpected event: {other:?}"),
            }
        }
        assert_eq!(discrepancies, 3);
        assert_eq!(cleans, 3);
    })
    .unwrap();
}

#[test]
fn dead_vm_degrades_rounds_then_trips_the_breaker() {
    let mut bed = Testbed::cloud_with(5, AddressWidth::W32, &blueprints());
    // dom5 disappears for good after its first few reads.
    bed.hv
        .set_fault_plan(bed.vm_ids[4], Some(FaultPlan::none(3).lose_after(2)))
        .unwrap();

    let mut monitor = ContinuousMonitor::new(MonitorConfig {
        modules: vec!["hal.dll".into()],
        health: HealthPolicy {
            failure_threshold: 2,
            cooldown_rounds: 3,
        },
        ..MonitorConfig::default()
    });
    let (tx, rx) = unbounded();
    monitor.run(&bed.hv, &bed.vm_ids, 4, &tx);
    drop(tx);
    let events: Vec<MonitorEvent> = rx.iter().collect();

    // Rounds 0-1 degrade (dom5 unscannable, survivors still vote clean);
    // the breaker trips at round 1 and rounds 2-3 run clean without dom5.
    let degraded = events
        .iter()
        .filter(|e| matches!(e, MonitorEvent::Degraded { .. }))
        .count();
    let clean = events
        .iter()
        .filter(|e| matches!(e, MonitorEvent::Clean { .. }))
        .count();
    assert_eq!((degraded, clean), (2, 2));
    assert!(events.iter().any(|e| matches!(
        e,
        MonitorEvent::VmQuarantined { vm_name, consecutive_failures: 2, .. } if vm_name == "dom5"
    )));
    assert!(!events
        .iter()
        .any(|e| matches!(e, MonitorEvent::Discrepancy { .. })));
    assert_eq!(monitor.quarantined(), vec![bed.vm_ids[4]]);
}

#[test]
fn worm_outbreak_alerts_even_without_majority() {
    let mut bed = Testbed::cloud_with(7, AddressWidth::W32, &blueprints());
    let bp = blueprints()
        .into_iter()
        .find(|b| b.name == "hal.dll")
        .unwrap();
    let infection = Technique::InlineHook.infection();
    let victims =
        worm::infect_fraction(&mut bed.hv, &bed.guests, &*infection, &bp.generate(), 0.72).unwrap();
    assert_eq!(victims.len(), 5, "5 of 7 infected — a strict majority");

    let report = ModChecker::new()
        .check_pool(&bed.hv, &bed.vm_ids, "hal.dll")
        .unwrap();
    // Majority voting now *favors the worm*: infected VMs match 4 of 6
    // (> 3) and read as clean; the true-clean VMs are flagged. The paper's
    // §III claim is that the discrepancy signal itself survives:
    assert!(report.any_discrepancy());
    let flagged: Vec<&str> = report.suspects().map(|v| v.vm_name.as_str()).collect();
    assert_eq!(flagged, vec!["dom6", "dom7"], "clean minority flagged");
    // ...which is precisely the false-alarm regime the paper warns about.
}
