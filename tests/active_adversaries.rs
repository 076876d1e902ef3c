//! Differential adversary × defense matrix.
//!
//! Each active adversary ([`mc_attacks::active`]) must *evade* the defenses
//! it is designed to evade — otherwise it is not testing anything — and be
//! *caught* once its counter-defense is enabled:
//!
//! | Adversary | Must evade | Must be caught by |
//! |---|---|---|
//! | DKOM unlink (all VMs) | list diff, content vote | cross-view hidden-module vote |
//! | scrub-race restorer | fixed-phase polling | scan-phase jitter; tamper evidence |
//! | checker blinding | the content vote | cross-view unlisted-image vote |
//!
//! Plus the jitter determinism property: a fixed jitter seed yields
//! byte-identical fleet sweeps across shard counts.

use modchecker::{
    CheckConfig, CompareStrategy, ContinuousMonitor, CrossView, FleetConfig, FleetScheduler,
    ListDiff, ModChecker, MonitorConfig, ScanJitter,
};
use modchecker_repro::attacks::active::{BlindChecker, DkomUnlink, ScrubRace};
use modchecker_repro::fleetgen::adversarial_fleet;
use modchecker_repro::guest::GuestOs;
use modchecker_repro::hypervisor::{AddressWidth, Hypervisor, Replay, VmId};
use modchecker_repro::pe::corpus::ModuleBlueprint;

const PERIOD_NS: u64 = 1_000_000_000; // 1 s nominal scan period

fn cloud(n: usize) -> (Hypervisor, Vec<GuestOs>, Vec<VmId>) {
    let mut hv = Hypervisor::new();
    let bps = vec![
        ModuleBlueprint::new("hal.dll", AddressWidth::W32, 8 * 1024),
        ModuleBlueprint::new("ndis.sys", AddressWidth::W32, 12 * 1024),
    ];
    let guests = mc_guest::build_cloud_with_modules(&mut hv, n, AddressWidth::W32, &bps).unwrap();
    let ids = guests.iter().map(|g| g.vm).collect();
    (hv, guests, ids)
}

#[test]
fn dkom_unlink_on_every_vm_evades_list_walk_and_is_caught_by_cross_view() {
    let (mut hv, guests, ids) = cloud(5);

    // Pre-adversary baseline: the module is in the pool consensus.
    let before = ListDiff::scan(&hv, &ids).unwrap();
    assert!(before.consensus_modules.contains(&"ndis.sys".to_string()));

    let mut replay = Replay::new();
    replay.add(DkomUnlink::new(&guests, "ndis.sys"));
    replay
        .step(
            &mut hv,
            &modchecker_repro::hypervisor::RoundCtx::unjittered(0, PERIOD_NS),
        )
        .unwrap();

    // EVASION — the list diff has no majority left to vote with: the
    // module simply vanishes from the consensus, anomaly-free.
    let after = ListDiff::scan(&hv, &ids).unwrap();
    assert!(
        !after.consensus_modules.contains(&"ndis.sys".to_string()),
        "unlinked-everywhere module must drop out of the consensus"
    );
    assert!(
        after.anomalies.is_empty(),
        "no listing disagrees with any other: {:?}",
        after.anomalies
    );

    // EVASION — the whole-pool sweep enumerates work from the consensus,
    // so the hidden module is never even scanned: one clean unit
    // (hal.dll) and zero suspects anywhere.
    let (lists, results) = ModChecker::new().check_all_modules(&hv, &ids).unwrap();
    assert_eq!(lists.consensus_modules, vec!["hal.dll".to_string()]);
    for (module, result) in &results {
        let report = result.as_ref().unwrap();
        assert_eq!(
            report.suspects().count(),
            0,
            "list-walk-only sweep must see nothing ({module})"
        );
    }

    // DETECTION — the orphaned entries and still-mapped images vote.
    let cv = CrossView::new().scan(&hv, &ids).unwrap();
    let hidden: Vec<_> = cv.hidden_modules().collect();
    assert_eq!(hidden.len(), 1, "{cv}");
    assert_eq!(hidden[0].module.as_deref(), Some("ndis.sys"));
    assert_eq!(hidden[0].votes, 5);
    // The untouched module stays unflagged.
    assert_eq!(cv.unlisted_images().count(), 0, "{cv}");
}

fn scrub_monitor(jitter: Option<ScanJitter>, tamper: bool) -> ContinuousMonitor {
    ContinuousMonitor::new(MonitorConfig {
        modules: vec!["hal.dll".into(), "ndis.sys".into()],
        check: CheckConfig {
            tamper_evidence: tamper,
            ..CheckConfig::default()
        },
        scan_jitter: jitter,
        ..MonitorConfig::default()
    })
}

const SCRUB_WINDOW_NS: u64 = 10_000;

fn scrub_bed() -> (Hypervisor, Vec<GuestOs>, Vec<VmId>, ScrubRace) {
    let (hv, guests, ids) = cloud(5);
    let adv = ScrubRace::new(
        &hv,
        &guests[1..=1], // dom2 is the foothold
        "hal.dll",
        0x1003,
        vec![0xD1, 0xD2, 0xD3],
        SCRUB_WINDOW_NS,
    )
    .unwrap();
    (hv, guests, ids, adv)
}

#[test]
fn scrub_race_evades_fixed_phase_polling() {
    let (mut hv, _guests, ids, adv) = scrub_bed();
    let mut replay = Replay::new();
    replay.add(adv);
    let monitor = scrub_monitor(None, false);
    for round in 0..4 {
        let ctx = monitor.round_ctx(round, PERIOD_NS);
        assert_eq!(ctx.scan_offset_ns, 0, "no jitter configured");
        replay.step(&mut hv, &ctx).unwrap();
        for (module, result) in monitor.run_round(&hv, &ids) {
            let report = result.unwrap();
            assert_eq!(
                report.suspects().count(),
                0,
                "round {round} {module}: fixed-phase polling must read clean"
            );
        }
    }
    assert!(monitor.silent_restores().is_empty(), "tamper evidence off");
}

#[test]
fn scrub_race_is_caught_by_scan_phase_jitter_exactly_on_predicted_rounds() {
    let (mut hv, _guests, ids, adv) = scrub_bed();
    let mut replay = Replay::new();
    replay.add(adv);
    let jitter = ScanJitter {
        seed: 42,
        max_ns: 1_000_000,
    };
    let monitor = scrub_monitor(Some(jitter), false);
    let mut caught = 0usize;
    for round in 0..4 {
        let ctx = monitor.round_ctx(round, PERIOD_NS);
        assert_eq!(ctx.scan_offset_ns, jitter.offset_ns(round), "pure function");
        replay.step(&mut hv, &ctx).unwrap();
        let results = monitor.run_round(&hv, &ids);
        let (_, hal) = &results[0];
        let hal = hal.as_ref().unwrap();
        let suspects: Vec<_> = hal.suspects().map(|v| v.vm_name.clone()).collect();
        if ctx.scan_offset_ns > SCRUB_WINDOW_NS {
            assert_eq!(
                suspects,
                vec!["dom2"],
                "round {round} (offset {}) scans mid-infection",
                ctx.scan_offset_ns
            );
            caught += 1;
        } else {
            assert!(suspects.is_empty(), "restored before a within-window scan");
        }
        // The unattacked module never flags.
        assert_eq!(results[1].1.as_ref().unwrap().suspects().count(), 0);
    }
    // With max_ns = 100 × the window, the seed-42 offsets land outside the
    // window on every one of the four rounds; at minimum the property
    // needs at least one catching round to be meaningful.
    assert!(caught > 0, "jitter never exceeded the restore window");
}

#[test]
fn scrub_race_is_caught_by_tamper_evidence_even_at_fixed_phase() {
    let (mut hv, guests, ids, adv) = scrub_bed();
    let mut replay = Replay::new();
    replay.add(adv);
    let monitor = scrub_monitor(None, true);
    for round in 0..3 {
        let ctx = monitor.round_ctx(round, PERIOD_NS);
        replay.step(&mut hv, &ctx).unwrap();
        for (module, result) in monitor.run_round(&hv, &ids) {
            assert_eq!(
                result.unwrap().suspects().count(),
                0,
                "round {round} {module}: bytes still read clean"
            );
        }
    }
    // Round 0 capture is a cold miss; rounds 1+ see moved generations with
    // identical bytes — the scrubbed-then-restored signature.
    let flagged = monitor.silent_restores();
    assert_eq!(
        flagged,
        vec![(guests[1].vm, "hal.dll".to_string())],
        "exactly the scrubbed (vm, module) pair must be flagged"
    );
    assert!(monitor.cache_stats().silent_restores >= 1);
}

#[test]
fn blind_checker_evades_the_content_vote_and_is_caught_by_cross_view() {
    let (mut hv, guests, ids) = cloud(5);
    let mut replay = Replay::new();
    replay.add(BlindChecker::new(
        &guests,
        "ndis.sys",
        0x1003,
        vec![0xCC, 0xCC],
    ));
    replay
        .step(
            &mut hv,
            &modchecker_repro::hypervisor::RoundCtx::unjittered(0, PERIOD_NS),
        )
        .unwrap();

    // EVASION — every capture reads the pristine decoy; the vote agrees.
    let report = ModChecker::new().check_pool(&hv, &ids, "ndis.sys").unwrap();
    assert!(
        report.all_clean(),
        "blinded captures must vote clean: {report}"
    );
    // EVASION — the list itself is intact: no diff anomaly either.
    let diff = ListDiff::scan(&hv, &ids).unwrap();
    assert!(diff.anomalies.is_empty(), "{:?}", diff.anomalies);

    // DETECTION — the truly mapped (and infected) image is claimed by no
    // entry; the sweep attributes it by its unique SizeOfImage.
    let cv = CrossView::new().scan(&hv, &ids).unwrap();
    let unlisted: Vec<_> = cv.unlisted_images().collect();
    assert_eq!(unlisted.len(), 1, "{cv}");
    assert_eq!(unlisted[0].module.as_deref(), Some("ndis.sys"));
    assert_eq!(unlisted[0].votes, 5);
    assert_eq!(cv.hidden_modules().count(), 0, "{cv}");
}

#[test]
fn clean_pool_trips_no_adversary_channel() {
    let (hv, _guests, ids) = cloud(4);
    let monitor = scrub_monitor(
        Some(ScanJitter {
            seed: 7,
            max_ns: 1_000_000,
        }),
        true,
    );
    for round in 0..3 {
        let _ = monitor.round_ctx(round, PERIOD_NS);
        for (module, result) in monitor.run_round(&hv, &ids) {
            assert!(result.unwrap().all_clean(), "round {round} {module}");
        }
    }
    assert!(monitor.silent_restores().is_empty());
    let cv = monitor.run_crossview(&hv, &ids).unwrap();
    assert!(cv.is_clean(), "{cv}");
    let m = monitor.metrics();
    assert!(m.counter("crossview_scans_total") >= 1);
}

/// Jitter determinism: with a fixed seed, a jittered fleet sweep is
/// byte-identical across shard counts. The jitter offsets themselves are a
/// pure function of (seed, round) — nothing about execution order can
/// perturb them.
#[test]
fn jittered_sweeps_are_shard_invariant() {
    for seed in 0..8u64 {
        let jitter = ScanJitter {
            seed: seed ^ 0x5EED_1A57,
            max_ns: 1_000_000,
        };
        // Shard invariance of a full (jitter-phase-stepped) fleet sweep.
        let mut sweeps = Vec::new();
        for shards in [1usize, 4] {
            let (mut bed, mut replay) = adversarial_fleet(seed);
            for round in 0..2 {
                let ctx = modchecker_repro::hypervisor::RoundCtx {
                    round,
                    period_ns: PERIOD_NS,
                    scan_offset_ns: jitter.offset_ns(round),
                };
                replay.step(&mut bed.hv, &ctx).unwrap();
            }
            let sched = FleetScheduler::new(FleetConfig {
                check: CheckConfig {
                    compare: CompareStrategy::Canonical,
                    ..CheckConfig::default()
                },
                shards,
            });
            let report = sched.sweep(&bed.hv, &bed.fleet);
            sweeps.push(serde_json::to_string_pretty(&report.to_json()).unwrap());
        }
        assert_eq!(
            sweeps[0], sweeps[1],
            "seed {seed}: fleet sweep bytes diverged across shard counts"
        );
    }
}
