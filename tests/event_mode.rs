//! Push-vs-pull equivalence: event-driven (write-trap) monitoring must be
//! an *optimization*, never a semantic change. Everything polling mode
//! concludes, push mode must conclude too — byte for byte once timing and
//! read counters are stripped — while reading dramatically less guest
//! memory on quiet rounds.
//!
//! The invariants:
//!
//! 1. **Verdict identity over the whole attack corpus.** For every
//!    file-level technique (the paper's four plus the evasive tier), an
//!    armed monitor and a polling monitor produce byte-identical verdict
//!    reports, round after round.
//! 2. **Quiet rounds are free.** Once the capture cache is warm, an
//!    event round over a clean cloud issues *zero* guest reads and zero
//!    page walks; polling re-reads every round.
//! 3. **Dirty means exactly the dirty pair.** A patched module rescans
//!    (and flags) while every untouched module is served from trust.
//! 4. **Chaos-proof.** Under transient fault plans the event pipeline is
//!    deterministic: the same build replays the same reports, byte for
//!    byte, and the infection is still caught.
//! 5. **Fleet-scale economics.** Across a multi-pool fleet, a trusted
//!    sweep on a clean round costs ≥10× fewer guest reads and page walks
//!    than the polling sweep — the `fig_events` headline, asserted here
//!    at test scale.
//! 6. **Memoized canonical forms never go stale.** Quiet rounds reuse each
//!    capture's memoized canonical form yet charge the same simulated
//!    time; a one-byte `.text` infection behind a memo is still flagged
//!    the very next round.

use mc_attacks::Technique;
use mc_hypervisor::FaultPlan;
use mc_vmi::VmiSession;
use modchecker::{
    canonical_form, CheckConfig, CompareStrategy, ContinuousMonitor, EventPlane, ExtractedModule,
    FleetConfig, FleetScheduler, ModuleSearcher, MonitorConfig, PoolCheckReport,
};
use modchecker_repro::fleetgen::uniform_fleet;
use modchecker_repro::testbed::Testbed;

/// Report serialization minus simulated timing and VMI cost counters —
/// the *verdict* content that push and pull modes must agree on.
fn verdict_bytes(report: &PoolCheckReport) -> String {
    let mut v = report.to_json();
    if let serde_json::Value::Object(ref mut obj) = v {
        obj.retain(|(k, _)| k != "times_ms" && k != "vmi");
    }
    serde_json::to_string_pretty(&v).expect("report serializes")
}

/// Sum of guest-read and page-walk counters across a round's reports.
fn round_cost(round: &[(String, Result<PoolCheckReport, modchecker::CheckError>)]) -> (u64, u64) {
    round.iter().fold((0, 0), |(reads, walks), (_, r)| {
        let r = r.as_ref().expect("round scans");
        (reads + r.vmi.reads, walks + r.vmi.page_walks)
    })
}

// ---------------------------------------------------------------------
// 1. Verdict identity across the attack corpus (§V.B + evasive tier).
// ---------------------------------------------------------------------

#[test]
fn push_and_pull_verdicts_are_byte_identical_across_the_attack_corpus() {
    for technique in Technique::COMPLETE {
        let (bed, _) = Testbed::infected_cloud(6, technique, &[2]).expect("infection applies");
        let target = technique.infection().target_module().to_string();
        let config = MonitorConfig {
            modules: vec![target],
            ..MonitorConfig::default()
        };

        // Pull baseline: two plain polling rounds (cold, then cached).
        let pull_bed = bed.clone();
        let pull = ContinuousMonitor::new(config.clone());
        let pull_rounds: Vec<_> = (0..2)
            .map(|_| pull.run_round(&pull_bed.hv, &pull_bed.vm_ids))
            .collect();

        // Push: arm write traps, then the same two rounds (cold fill,
        // then fully-trusted steady state).
        let mut push_bed = bed.clone();
        let push = ContinuousMonitor::new(config);
        push.arm_events(&mut push_bed.hv, &push_bed.vm_ids)
            .expect("arming succeeds on a healthy cloud");
        assert!(push.events_armed());
        let push_rounds: Vec<_> = (0..2)
            .map(|_| push.run_round_events(&push_bed.hv, &push_bed.vm_ids))
            .collect();

        for (round, (pull_round, push_round)) in pull_rounds.iter().zip(&push_rounds).enumerate() {
            for ((pm, pr), (em, er)) in pull_round.iter().zip(push_round) {
                assert_eq!(pm, em);
                let pr = pr.as_ref().expect("pull scan succeeds");
                let er = er.as_ref().expect("push scan succeeds");
                assert_eq!(
                    verdict_bytes(pr),
                    verdict_bytes(er),
                    "{technique}: push diverged from pull in round {round}"
                );
            }
        }

        // Sanity on the shared verdict: the IAT pivot rewrites only
        // `.idata`, which the paper's hash skips — every other technique
        // must flag exactly the infected VM.
        let last = &push_rounds[1][0].1;
        let suspects: Vec<&str> = last
            .as_ref()
            .expect("scan")
            .suspects()
            .map(|v| v.vm_name.as_str())
            .collect();
        if technique == Technique::IatPivot {
            assert!(suspects.is_empty(), "IatPivot must stay vote-invisible");
        } else {
            assert_eq!(suspects, vec!["dom3"], "{technique}");
        }
    }
}

// ---------------------------------------------------------------------
// 2. Quiet rounds read zero guest bytes; polling keeps paying.
// ---------------------------------------------------------------------

#[test]
fn quiet_event_rounds_read_zero_guest_bytes_while_polling_rereads() {
    let modules: Vec<String> = ["hal.dll", "http.sys", "dummy.sys", "helloworld.sys"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let config = MonitorConfig {
        modules,
        ..MonitorConfig::default()
    };

    let pull_bed = Testbed::small_cloud(6);
    let pull = ContinuousMonitor::new(config.clone());
    pull.run_round(&pull_bed.hv, &pull_bed.vm_ids); // warm the cache
    let (pull_reads, pull_walks) = round_cost(&pull.run_round(&pull_bed.hv, &pull_bed.vm_ids));

    let mut push_bed = Testbed::small_cloud(6);
    let push = ContinuousMonitor::new(config);
    push.arm_events(&mut push_bed.hv, &push_bed.vm_ids)
        .expect("arming succeeds");
    push.run_round_events(&push_bed.hv, &push_bed.vm_ids); // cold fill
    let (push_reads, push_walks) =
        round_cost(&push.run_round_events(&push_bed.hv, &push_bed.vm_ids));

    assert_eq!(push_reads, 0, "a quiet trusted round must not read guests");
    assert_eq!(push_walks, 0, "a quiet trusted round must not walk tables");
    // The ≥10× gate `fig_events` enforces at bench scale, at test scale.
    assert!(
        pull_reads >= 10 * push_reads.max(1),
        "polling should cost ≥10× the reads of a quiet push round \
         (pull {pull_reads}, push {push_reads})"
    );
    assert!(
        pull_walks >= 10 * push_walks.max(1),
        "polling should cost ≥10× the walks of a quiet push round \
         (pull {pull_walks}, push {push_walks})"
    );
}

// ---------------------------------------------------------------------
// 3. A write dirties exactly its (vm, module) pair.
// ---------------------------------------------------------------------

#[test]
fn a_patched_module_rescans_while_untouched_modules_stay_trusted() {
    let modules: Vec<String> = ["hal.dll", "http.sys", "dummy.sys", "helloworld.sys"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let mut bed = Testbed::small_cloud(6);
    let monitor = ContinuousMonitor::new(MonitorConfig {
        modules,
        ..MonitorConfig::default()
    });
    monitor
        .arm_events(&mut bed.hv, &bed.vm_ids)
        .expect("arming succeeds");
    monitor.run_round_events(&bed.hv, &bed.vm_ids); // cold fill

    bed.guests[2]
        .patch_module(&mut bed.hv, "hal.dll", 0x1234, &[0xCC, 0xCC])
        .expect("patch lands");

    let round = monitor.run_round_events(&bed.hv, &bed.vm_ids);
    for (module, result) in &round {
        let report = result.as_ref().expect("scan succeeds");
        let suspects: Vec<&str> = report.suspects().map(|v| v.vm_name.as_str()).collect();
        if module == "hal.dll" {
            assert_eq!(suspects, vec!["dom3"], "the write must be caught");
            assert!(report.vmi.reads > 0, "the dirty pair must rescan");
        } else {
            assert!(suspects.is_empty());
            assert_eq!(
                report.vmi.reads, 0,
                "{module} was never written — it must be served from trust"
            );
        }
    }

    let stats = monitor.event_stats().expect("plane armed");
    assert!(stats.events_drained > 0);
    assert!(stats.dirty_marks >= 1);
    assert_eq!(stats.unattributed_events, 0);
}

// ---------------------------------------------------------------------
// 4. Event-mode chaos: deterministic under fault plans, still detects.
// ---------------------------------------------------------------------

/// One full event-mode run under transient read faults: arm, cold round,
/// quiet round, infect, detection round. Returns every report serialized
/// *in full* (timing and cost counters included) — the determinism claim
/// is total, not just verdict-level.
fn chaos_run(seed: u64) -> Vec<String> {
    let mut bed = Testbed::small_cloud(6);
    bed.hv.inject_fault_plan(FaultPlan::transient(seed, 0.03));
    let monitor = ContinuousMonitor::new(MonitorConfig {
        modules: vec!["hal.dll".to_string(), "http.sys".to_string()],
        ..MonitorConfig::default()
    });
    monitor
        .arm_events(&mut bed.hv, &bed.vm_ids)
        .expect("arming rides out transient faults");

    let mut out = Vec::new();
    let mut record = |round: Vec<(String, Result<PoolCheckReport, modchecker::CheckError>)>| {
        for (_, result) in round {
            let report = result.expect("transient faults never sink a scan");
            out.push(serde_json::to_string_pretty(&report.to_json()).expect("report serializes"));
        }
    };
    record(monitor.run_round_events(&bed.hv, &bed.vm_ids));
    record(monitor.run_round_events(&bed.hv, &bed.vm_ids));
    bed.guests[4]
        .patch_module(&mut bed.hv, "http.sys", 0x1100, &[0x90, 0x90, 0x90])
        .expect("patch lands");
    record(monitor.run_round_events(&bed.hv, &bed.vm_ids));
    out
}

#[test]
fn event_mode_chaos_run_is_deterministic_and_still_detects() {
    let first = chaos_run(0xC0FFEE);
    let second = chaos_run(0xC0FFEE);
    assert_eq!(
        first, second,
        "same build + same fault seed must replay byte-identical reports"
    );
    // The detection round's http.sys report (last in the run) flags dom5.
    let last: serde_json::Value =
        serde_json::from_str(first.last().expect("rounds ran")).expect("report parses back");
    let rendered = serde_json::to_string(&last).expect("serializes");
    assert!(
        rendered.contains("dom5"),
        "the mid-chaos infection must still be flagged"
    );
}

// ---------------------------------------------------------------------
// 5. Fleet scale: trusted sweeps are ≥10× cheaper on clean rounds.
// ---------------------------------------------------------------------

#[test]
fn fleet_events_sweeps_cost_a_tenth_of_polling_on_clean_rounds() {
    let mut bed = uniform_fleet(3, 4, 2, 77);

    // Arm every pool's consensus modules.
    let mut plane = EventPlane::new();
    let consensus = bed.truth.consensus.clone();
    for (spec, (pool, modules)) in bed.fleet.pools.clone().iter().zip(&consensus) {
        assert_eq!(&spec.name, pool);
        plane
            .arm_modules(&mut bed.hv, &spec.vms, modules)
            .expect("arming succeeds");
    }

    let poll = FleetScheduler::new(FleetConfig::default());
    let push = FleetScheduler::new(FleetConfig::default());

    // Warm both schedulers' caches.
    poll.sweep(&bed.hv, &bed.fleet);
    plane.drain(&bed.hv);
    push.sweep_with_trust(&bed.hv, &bed.fleet, Some(&plane));
    plane.clear_dirty();

    // Steady state, nothing written: compare one round's cost.
    let fold = |report: &modchecker::FleetReport| {
        report.units().fold((0u64, 0u64), |(reads, walks), u| {
            let r = u.result.as_ref().expect("unit scans");
            (reads + r.vmi.reads, walks + r.vmi.page_walks)
        })
    };
    let poll_report = poll.sweep(&bed.hv, &bed.fleet);
    plane.drain(&bed.hv);
    let push_report = push.sweep_with_trust(&bed.hv, &bed.fleet, Some(&plane));
    plane.clear_dirty();

    let (poll_reads, poll_walks) = fold(&poll_report);
    let (push_reads, push_walks) = fold(&push_report);
    assert_eq!(push_reads, 0, "clean trusted sweep must not read guests");
    assert_eq!(push_walks, 0);
    assert!(
        poll_reads >= 10 * push_reads.max(1) && poll_walks >= 10 * push_walks.max(1),
        "poll ({poll_reads} reads / {poll_walks} walks) must cost ≥10× \
         push ({push_reads} reads / {push_walks} walks)"
    );
    assert_eq!(poll_report.suspects(), push_report.suspects());
    assert!(push_report.suspects().is_empty());

    // And a write in one pool is still found by the next trusted sweep,
    // with the same suspect set polling finds.
    bed.guests[1][0]
        .patch_module(&mut bed.hv, "p1m0.sys", 0x1042, &[0xEB, 0xFE])
        .expect("patch lands");
    let poll_report = poll.sweep(&bed.hv, &bed.fleet);
    plane.drain(&bed.hv);
    let push_report = push.sweep_with_trust(&bed.hv, &bed.fleet, Some(&plane));
    plane.clear_dirty();
    let expected = vec![(
        "pool1".to_string(),
        "p1m0.sys".to_string(),
        "p1dom0".to_string(),
    )];
    assert_eq!(push_report.suspects(), expected);
    assert_eq!(poll_report.suspects(), expected);
}

// ---------------------------------------------------------------------
// 6. Snapshot revert racing an armed round: trust dies with the eviction.
// ---------------------------------------------------------------------

/// A snapshot revert is the one guest-state mutation the trap plane cannot
/// see — the restore is a hypervisor-side frame remap, not a guest write,
/// so it fires no events (see `Vm::revert`). A scrub built on revert would
/// therefore ride stale trust straight through an armed round *unless*
/// every revert path goes through cache eviction. This pins that contract
/// end to end: the in-flight armed round flags the infection, remediation
/// reverts + evicts, and the very next round rescans the reverted pair
/// (positive read cost) even though the event plane still believes its
/// frames quiet — then trust re-establishes, and a post-revert
/// re-infection still traps, because a revert must never disarm watches.
#[test]
fn a_snapshot_revert_scrub_cannot_ride_stale_trust_through_an_armed_round() {
    let mut bed = Testbed::small_cloud(6);
    for &id in &bed.vm_ids {
        bed.hv.vm_mut(id).expect("vm exists").snapshot("clean");
    }
    let monitor = ContinuousMonitor::new(MonitorConfig {
        modules: vec!["hal.dll".to_string()],
        ..MonitorConfig::default()
    });
    monitor
        .arm_events(&mut bed.hv, &bed.vm_ids)
        .expect("arming succeeds");
    monitor.run_round_events(&bed.hv, &bed.vm_ids); // cold fill
    let quiet = monitor.run_round_events(&bed.hv, &bed.vm_ids);
    assert_eq!(round_cost(&quiet), (0, 0), "steady state is fully trusted");

    // The infection write traps; the in-flight armed round catches it.
    bed.guests[2]
        .patch_module(&mut bed.hv, "hal.dll", 0x1234, &[0xCC, 0xCC])
        .expect("patch lands");
    let round = monitor.run_round_events(&bed.hv, &bed.vm_ids);
    let report = round[0].1.as_ref().expect("scan succeeds");
    let suspects: Vec<&str> = report.suspects().map(|v| v.vm_name.as_str()).collect();
    assert_eq!(
        suspects,
        vec!["dom3"],
        "the armed round must flag the write"
    );

    // Scrub via revert, mid-armed-sequence. No event fires.
    let drained_before = monitor.event_stats().expect("plane armed").events_drained;
    let reverted = monitor
        .remediate(&mut bed.hv, report, "clean")
        .expect("revert lands");
    assert_eq!(reverted, vec!["dom3"]);

    // The next armed round must NOT serve dom3 from stale trust: the
    // eviction forces a rescan (positive read cost) even though the event
    // plane saw nothing, and the rescan comes back clean.
    let post = monitor.run_round_events(&bed.hv, &bed.vm_ids);
    let report = post[0].1.as_ref().expect("scan succeeds");
    assert!(
        report.suspects().next().is_none(),
        "the reverted guest is clean again"
    );
    assert!(
        report.vmi.reads > 0,
        "trust must not survive the eviction: the reverted pair rescans"
    );
    assert_eq!(
        monitor.event_stats().expect("plane armed").events_drained,
        drained_before,
        "the revert itself must fire no trap events — that is the threat"
    );

    // Trust re-establishes once the rescan restocks the cache...
    let quiet = monitor.run_round_events(&bed.hv, &bed.vm_ids);
    assert_eq!(round_cost(&quiet), (0, 0), "trust re-establishes");

    // ...and the revert did not disarm the watches: a post-revert
    // re-infection still traps and is caught by the next round.
    bed.guests[2]
        .patch_module(&mut bed.hv, "hal.dll", 0x2000, &[0xEB, 0xFE])
        .expect("patch lands");
    let again = monitor.run_round_events(&bed.hv, &bed.vm_ids);
    let report = again[0].1.as_ref().expect("scan succeeds");
    let suspects: Vec<&str> = report.suspects().map(|v| v.vm_name.as_str()).collect();
    assert_eq!(suspects, vec!["dom3"], "watches must survive the revert");
}

// ---------------------------------------------------------------------
// 6. Memoized canonical forms: same charge, never stale.
// ---------------------------------------------------------------------

/// Every module's verdict bytes for one round, in module order.
fn round_verdicts(
    round: &[(String, Result<PoolCheckReport, modchecker::CheckError>)],
) -> Vec<String> {
    round
        .iter()
        .map(|(_, r)| verdict_bytes(r.as_ref().expect("round scans")))
        .collect()
}

/// Suspect VM names per module for one round.
fn round_suspects(
    round: &[(String, Result<PoolCheckReport, modchecker::CheckError>)],
) -> Vec<(String, Vec<String>)> {
    round
        .iter()
        .map(|(m, r)| {
            let report = r.as_ref().expect("round scans");
            (
                m.clone(),
                report.suspects().map(|v| v.vm_name.clone()).collect(),
            )
        })
        .collect()
}

#[test]
fn memoized_canonical_forms_charge_the_same_and_never_go_stale() {
    let modules: Vec<String> = ["hal.dll", "http.sys", "dummy.sys", "helloworld.sys"]
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    let mut bed = Testbed::small_cloud(5);
    let monitor = ContinuousMonitor::new(MonitorConfig {
        modules: modules.clone(),
        check: CheckConfig {
            compare: CompareStrategy::Canonical,
            ..CheckConfig::default()
        },
        ..MonitorConfig::default()
    });
    monitor
        .arm_events(&mut bed.hv, &bed.vm_ids)
        .expect("arming succeeds");
    let clean = round_verdicts(&monitor.run_round_events(&bed.hv, &bed.vm_ids));

    // What a clean pool's checker costs with every form computed afresh:
    // one canonical form per capture, on captures nothing has memoized.
    let fresh_charge: Vec<u64> = modules
        .iter()
        .map(|module| {
            let mut ledger = VmiSession::attach(&bed.hv, bed.vm_ids[0]).expect("attach");
            ledger.take_elapsed();
            for &vm in &bed.vm_ids {
                let mut s = VmiSession::attach(&bed.hv, vm).expect("attach");
                let image = ModuleSearcher::find(&mut s, module).expect("module listed");
                let m = ExtractedModule::new(image).expect("module parses");
                canonical_form(&m, Some(&mut ledger)).expect("corpus carries .reloc");
            }
            ledger.elapsed().as_nanos()
        })
        .collect();

    // Quiet rounds serve the cold round's captures, and with them their
    // memoized forms: zero reads, and the very same simulated charge.
    for _ in 0..3 {
        let quiet = monitor.run_round_events(&bed.hv, &bed.vm_ids);
        assert_eq!(round_cost(&quiet), (0, 0), "quiet rounds are trusted");
        assert_eq!(round_verdicts(&quiet), clean);
        for ((module, q), fresh) in quiet.iter().zip(&fresh_charge) {
            assert_eq!(
                q.as_ref().unwrap().times.checker.as_nanos(),
                *fresh,
                "{module}: a memoized form is charged like a fresh one"
            );
        }
        let again = monitor.run_round_events(&bed.hv, &bed.vm_ids);
        for ((_, q), (module, a)) in quiet.iter().zip(&again) {
            assert_eq!(
                q.as_ref().unwrap().times,
                a.as_ref().unwrap().times,
                "{module}: quiet rounds report identical component times"
            );
        }
    }

    // A one-byte `.text` infection of each module in turn, on a different
    // VM each time, is flagged the very next round; reverting the byte
    // clears it the round after.
    for (i, module) in modules.iter().enumerate() {
        let victim = (i + 1) % bed.vm_ids.len();
        let vm = bed.vm_ids[victim];
        let text = {
            let mut s = VmiSession::attach(&bed.hv, vm).expect("attach");
            let image = ModuleSearcher::find(&mut s, module).expect("module listed");
            let m = ExtractedModule::new(image).expect("module parses");
            m.parts.exec_sections[0].range.clone()
        };
        let off = (text.start + 5 + 7 * i) as u64;
        let base = bed.guests[victim].find_module(module).expect("loaded").base;
        let mut original = [0u8; 1];
        bed.hv
            .vm(vm)
            .expect("live VM")
            .read_virt(base + off, &mut original)
            .expect("mapped .text page");
        bed.guests[victim]
            .patch_module(&mut bed.hv, module, off, &[original[0] ^ 0xFF])
            .expect("patch lands");
        let round = monitor.run_round_events(&bed.hv, &bed.vm_ids);
        for (m, suspects) in round_suspects(&round) {
            let want = if &m == module {
                vec![format!("dom{}", victim + 1)]
            } else {
                Vec::new()
            };
            assert_eq!(suspects, want, "infected {module} on dom{}", victim + 1);
        }

        bed.guests[victim]
            .patch_module(&mut bed.hv, module, off, &original)
            .expect("revert lands");
        let round = monitor.run_round_events(&bed.hv, &bed.vm_ids);
        assert_eq!(round_verdicts(&round), clean, "{module} reverted");
    }

    // An identical-bytes rewrite of every module moves generations but no
    // content: every verdict stays as it was.
    for (i, module) in modules.iter().enumerate() {
        let victim = i % bed.vm_ids.len();
        let base = bed.guests[victim].find_module(module).expect("loaded").base;
        let mut same = [0u8; 64];
        bed.hv
            .vm(bed.vm_ids[victim])
            .expect("live VM")
            .read_virt(base + 0x1000, &mut same)
            .expect("mapped module page");
        bed.guests[victim]
            .patch_module(&mut bed.hv, module, 0x1000, &same)
            .expect("rewrite lands");
    }
    let round = monitor.run_round_events(&bed.hv, &bed.vm_ids);
    assert_eq!(round_verdicts(&round), clean, "identical rewrite");
}
