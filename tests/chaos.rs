//! Chaos suite: the scanner must hold its verdicts — and never panic —
//! while the hypervisor injects deterministic faults underneath it.
//!
//! The invariants, in rough order of importance:
//!
//! 1. **No panics, ever.** Whatever the fault plan, `check_one` /
//!    `check_pool` return a report or a typed error.
//! 2. **Transient faults are invisible.** A clean pool under retryable
//!    fault rates scans fully clean with a full quorum — retries absorb
//!    the noise.
//! 3. **Degradation is graceful and honest.** VMs that drop out mid-scan
//!    leave the vote without dragging surviving verdicts with them, and
//!    the report's quorum status says what happened.
//! 4. **Determinism.** The same fault seed reproduces the same report,
//!    byte for byte.

use mc_hypervisor::{AddressWidth, FaultPlan, SimDuration};
use mc_pe::corpus::ModuleBlueprint;
use modchecker::{
    CheckConfig, ModChecker, QuorumStatus, RetryPolicy, VerdictErrorKind, VerdictStatus,
};
use modchecker_repro::testbed::Testbed;
use proptest::prelude::*;

fn bed(n: usize) -> Testbed {
    let w = AddressWidth::W32;
    Testbed::cloud_with(
        n,
        w,
        &[
            ModuleBlueprint::new("hal.dll", w, 16 * 1024),
            ModuleBlueprint::new("ndis.sys", w, 12 * 1024),
        ],
    )
}

#[test]
fn clean_pool_under_transient_faults_scans_clean_with_full_quorum() {
    // The headline acceptance scenario: 8 VMs, 5% transient read faults
    // everywhere. The retry budget rides the noise out; nobody is flagged
    // and nobody drops out.
    let mut bed = bed(8);
    bed.hv.inject_fault_plan(FaultPlan::transient(1234, 0.05));
    let report = ModChecker::new()
        .check_pool(&bed.hv, &bed.vm_ids, "hal.dll")
        .unwrap();
    assert!(report.all_clean(), "transient faults flagged a VM");
    assert!(!report.any_discrepancy());
    assert_eq!(report.quorum, QuorumStatus::Full);
    assert_eq!(report.scanned, 8);
    assert!(report.verdicts.iter().all(|v| v.error.is_none()));
}

#[test]
fn infected_vm_is_still_named_under_fault_load() {
    // Fault injection must not blur the signal: with faults on every VM
    // and one real infection, the vote still pinpoints exactly the victim.
    let mut bed = bed(8);
    bed.guests[2]
        .patch_module(&mut bed.hv, "hal.dll", 0x1003, &[0xCC])
        .unwrap();
    bed.hv.inject_fault_plan(FaultPlan::transient(77, 0.05));
    let report = ModChecker::new()
        .check_pool(&bed.hv, &bed.vm_ids, "hal.dll")
        .unwrap();
    assert_eq!(report.quorum, QuorumStatus::Full);
    let suspects: Vec<&str> = report.suspects().map(|v| v.vm_name.as_str()).collect();
    assert_eq!(suspects, vec!["dom3"]);
}

#[test]
fn vms_lost_mid_scan_degrade_quorum_without_disturbing_survivors() {
    // Baseline: 8 VMs, dom3 infected, no faults.
    let infect = |bed: &mut Testbed| {
        bed.guests[2]
            .patch_module(&mut bed.hv, "hal.dll", 0x1003, &[0xCC])
            .unwrap();
    };
    let mut baseline_bed = bed(8);
    infect(&mut baseline_bed);
    let baseline = ModChecker::new()
        .check_pool(&baseline_bed.hv, &baseline_bed.vm_ids, "hal.dll")
        .unwrap();

    // Same pool, but two clean VMs die partway through their captures.
    let mut chaos_bed = bed(8);
    infect(&mut chaos_bed);
    for &idx in &[5usize, 6] {
        chaos_bed
            .hv
            .set_fault_plan(
                chaos_bed.vm_ids[idx],
                Some(FaultPlan::none(9).lose_after(4)),
            )
            .unwrap();
    }
    let report = ModChecker::new()
        .check_pool(&chaos_bed.hv, &chaos_bed.vm_ids, "hal.dll")
        .unwrap();

    assert_eq!(report.quorum, QuorumStatus::Degraded);
    assert_eq!(report.scanned, 6);
    let lost: Vec<&str> = report.unscannable().map(|v| v.vm_name.as_str()).collect();
    assert_eq!(lost, vec!["dom6", "dom7"]);
    for v in report.unscannable() {
        assert_eq!(
            v.error.as_ref().unwrap().kind,
            VerdictErrorKind::VmUnreachable
        );
    }
    // Survivors keep exactly the verdicts they had with the full pool.
    for v in &report.verdicts {
        if v.status == VerdictStatus::Unscannable {
            continue;
        }
        let base = baseline
            .verdicts
            .iter()
            .find(|b| b.vm_name == v.vm_name)
            .unwrap();
        assert_eq!(v.clean, base.clean, "{}", v.vm_name);
        assert_eq!(v.status, base.status, "{}", v.vm_name);
        assert_eq!(v.suspect_parts, base.suspect_parts, "{}", v.vm_name);
    }
    let suspects: Vec<&str> = report.suspects().map(|v| v.vm_name.as_str()).collect();
    assert_eq!(suspects, vec!["dom3"], "the infection survives the outage");
}

#[test]
fn pool_below_min_quorum_reports_lost_without_panicking() {
    let mut bed = bed(4);
    for &idx in &[1usize, 2, 3] {
        bed.hv
            .set_fault_plan(bed.vm_ids[idx], Some(FaultPlan::none(5).lose_after(0)))
            .unwrap();
    }
    let report = ModChecker::new()
        .check_pool(&bed.hv, &bed.vm_ids, "hal.dll")
        .unwrap();
    assert_eq!(report.scanned, 1);
    assert_eq!(report.quorum, QuorumStatus::Lost);
    // One capture alone proves nothing: every verdict is unscannable and
    // none is clean.
    assert!(report
        .verdicts
        .iter()
        .all(|v| v.status == VerdictStatus::Unscannable && !v.clean));
    assert_eq!(report.matrix.len(), 0);
}

#[test]
fn tight_deadline_is_a_typed_error_not_a_hang() {
    let mut bed = bed(4);
    bed.hv.inject_fault_plan(FaultPlan::transient(3, 0.1));
    let checker = ModChecker::with_config(CheckConfig {
        deadline: Some(SimDuration::from_micros(1)),
        ..CheckConfig::default()
    });
    let report = checker.check_pool(&bed.hv, &bed.vm_ids, "hal.dll").unwrap();
    assert_eq!(report.quorum, QuorumStatus::Lost);
    for v in &report.verdicts {
        assert_eq!(v.status, VerdictStatus::Unscannable);
        assert_eq!(v.error.as_ref().unwrap().kind, VerdictErrorKind::Deadline);
    }
}

#[test]
fn paused_vms_ride_out_within_the_retry_budget() {
    let mut bed = bed(5);
    // dom2 pauses for 2 attempts after its 6th read; the default backoff
    // schedule waits it out and the scan completes at full quorum.
    bed.hv
        .set_fault_plan(bed.vm_ids[1], Some(FaultPlan::none(8).pause_after(6, 2)))
        .unwrap();
    let report = ModChecker::new()
        .check_pool(&bed.hv, &bed.vm_ids, "hal.dll")
        .unwrap();
    assert_eq!(report.quorum, QuorumStatus::Full);
    assert!(report.all_clean());
}

#[test]
fn same_seed_reproduces_the_report_byte_for_byte() {
    let run = || {
        let mut bed = bed(6);
        bed.guests[4]
            .patch_module(&mut bed.hv, "ndis.sys", 0x1007, &[0x90, 0x90])
            .unwrap();
        bed.hv.inject_fault_plan(FaultPlan::chaos(0xC0FFEE, 0.06));
        let report = ModChecker::new()
            .check_pool(&bed.hv, &bed.vm_ids, "ndis.sys")
            .unwrap();
        serde_json::to_string_pretty(&report.to_json()).unwrap()
    };
    assert_eq!(run(), run());
}

#[test]
fn retry_jitter_shifts_schedules_per_vm_without_touching_verdicts() {
    // Backoff jitter decorrelates retry storms: each VM draws its waits
    // from its own seeded stream, so schedules are *distinct* across VMs
    // yet fully *deterministic* — same seed, same report.
    let run = |jitter: f64| {
        let mut bed = bed(6);
        // Scatter-gather captures consult the fault layer once per batch
        // (not per page), so the per-consult probability is raised to keep
        // several VMs retrying — the comparison below needs them.
        bed.hv.inject_fault_plan(FaultPlan::transient(0xBEEF, 0.2));
        ModChecker::with_config(CheckConfig {
            retry: RetryPolicy::with_max_retries(6).with_jitter(jitter),
            ..CheckConfig::default()
        })
        .check_pool(&bed.hv, &bed.vm_ids, "hal.dll")
        .unwrap()
    };
    let render =
        |r: &modchecker::PoolCheckReport| serde_json::to_string_pretty(&r.to_json()).unwrap();

    let on = run(0.5);
    // Deterministic: the jittered run reproduces byte-for-byte.
    assert_eq!(render(&on), render(&run(0.5)));

    // Jitter moves timing only: verdicts and quorum match the unjittered
    // run exactly.
    let off = run(0.0);
    assert_eq!(on.quorum, off.quorum);
    for (a, b) in on.verdicts.iter().zip(&off.verdicts) {
        assert_eq!(a.vm_name, b.vm_name);
        assert_eq!(a.status, b.status);
    }

    // Distinct schedules: among the VMs that actually retried, the time
    // the jitter added differs VM to VM — per-VM streams, not one shared
    // wobble.
    let deltas: Vec<i128> = on
        .per_vm
        .iter()
        .zip(&off.per_vm)
        .filter(|(a, _)| a.vmi.retries > 0)
        .map(|(a, b)| {
            i128::from(a.times.total().as_nanos()) - i128::from(b.times.total().as_nanos())
        })
        .collect();
    assert!(
        deltas.len() >= 2,
        "fault plan produced too few retrying VMs to compare"
    );
    assert!(
        deltas.iter().any(|&d| d != 0),
        "jitter 0.5 never changed a retrying VM's schedule"
    );
    assert!(
        deltas.windows(2).any(|w| w[0] != w[1]),
        "all retrying VMs shifted identically — jitter stream is not per-VM"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever the fault cocktail, the scan returns a structurally
    /// consistent report — no panics, no hangs, no impossible counters.
    #[test]
    fn no_fault_plan_can_panic_the_scanner(
        seed in 0u64..1_000,
        transient_pct in 0u32..30,
        chaotic in proptest::bool::ANY,
        retries in 0u32..6,
        lose_victim in 0usize..5,
        lose_after in 0u64..40,
    ) {
        let rate = f64::from(transient_pct) / 100.0;
        let plan = if chaotic {
            FaultPlan::chaos(seed, rate)
        } else {
            FaultPlan::transient(seed, rate)
        };
        let mut bed = bed(5);
        bed.hv.inject_fault_plan(plan);
        bed.hv
            .set_fault_plan(
                bed.vm_ids[lose_victim],
                Some(plan.lose_after(lose_after)),
            )
            .unwrap();
        let checker = ModChecker::with_config(CheckConfig {
            retry: RetryPolicy::with_max_retries(retries),
            ..CheckConfig::default()
        });

        // check_pool always completes with a report.
        let report = checker.check_pool(&bed.hv, &bed.vm_ids, "hal.dll").unwrap();
        prop_assert_eq!(report.verdicts.len(), 5);
        prop_assert!(report.scanned <= 5);
        let unscannable = report.verdicts.iter()
            .filter(|v| v.status == VerdictStatus::Unscannable)
            .count();
        let suspect_errors = report.verdicts.iter()
            .filter(|v| v.status == VerdictStatus::Suspect && v.error.is_some())
            .count();
        match report.quorum {
            QuorumStatus::Full => prop_assert_eq!(report.scanned, 5),
            QuorumStatus::Degraded => prop_assert!((2..5).contains(&report.scanned)),
            QuorumStatus::Lost => {
                prop_assert!(report.scanned < 2);
                // Below quorum nothing is clean: every VM is unreachable,
                // or suspect through its own capture failure.
                prop_assert_eq!(unscannable + suspect_errors, 5);
            }
        }
        for v in &report.verdicts {
            prop_assert!(v.successes <= v.comparisons);
            prop_assert_eq!(v.clean, v.status == VerdictStatus::Clean);
        }

        // check_one returns a report or a typed error, never a panic.
        match checker.check_one(&bed.hv, bed.vm_ids[0], &bed.peers_of(0), "hal.dll") {
            Ok(r) => prop_assert!(r.successes <= r.comparisons),
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    /// Transient-only fault plans can *never* produce a false infection:
    /// a clean pool either scans a VM successfully or drops it from the
    /// vote — it must not vote it infected.
    #[test]
    fn transient_faults_never_vote_a_clean_vm_infected(
        seed in 0u64..1_000,
        rate_pct in 0u32..25,
        retries in 0u32..6,
    ) {
        let mut bed = bed(4);
        bed.hv.inject_fault_plan(
            FaultPlan::transient(seed, f64::from(rate_pct) / 100.0),
        );
        let checker = ModChecker::with_config(CheckConfig {
            retry: RetryPolicy::with_max_retries(retries),
            ..CheckConfig::default()
        });
        let report = checker.check_pool(&bed.hv, &bed.vm_ids, "ndis.sys").unwrap();
        prop_assert!(
            report.suspects().next().is_none(),
            "clean pool voted a VM infected under transient faults (quorum {:?})",
            report.quorum
        );
    }
}
