//! Randomized cloud-simulation property suite for the fleet scheduler.
//!
//! Each seeded case generates a random fleet topology *with ground truth*
//! ([`modchecker_repro::fleetgen::random_fleet`]): pool count and sizes,
//! module sets, infection placement (code patches, DKOM hiding) and fault
//! plans (lost VMs, transient read noise). The oracle then holds in all
//! four execution-mode combinations (pairwise/canonical × sequential/
//! sharded), plus a fifth mode layering the per-bucket static pre-pass on
//! canonical comparison:
//!
//! * every infected `(VM, module)` is flagged `Suspect`;
//! * no clean VM is flagged anywhere — in particular the vote-invisible
//!   IAT pivot stays vote-clean in *every* mode;
//! * per-unit quorum degradation matches the fault plan exactly;
//! * lost VMs are `Unscannable`, never suspects;
//! * under the pre-pass, every stealth (IAT-pivot) victim is statically
//!   flagged, nothing outside `infected ∪ stealth` ever is, and the
//!   analyzer ran at most once per content bucket per unit;
//! * within one compare strategy, sharded and sequential sweeps serialize
//!   to byte-identical `FleetReport` JSON.
//!
//! Every assertion message carries the reproducing seed. Case count
//! defaults to 200 (the CI smoke floor) and is overridable via
//! `FLEET_SIM_CASES`.

use modchecker::{
    CheckConfig, CompareStrategy, FleetConfig, FleetReport, FleetScheduler, QuorumStatus,
    RetryPolicy, VerdictStatus,
};
use modchecker_repro::fleetgen::{random_fleet, FleetBed};

fn case_count() -> u64 {
    std::env::var("FLEET_SIM_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200)
}

/// A 6-retry budget makes the generator's 2% transient noise statistically
/// invisible (loss probability ~1e-12 per read), so the oracle never has
/// to model retry exhaustion.
fn config(compare: CompareStrategy) -> CheckConfig {
    CheckConfig {
        compare,
        retry: RetryPolicy::with_max_retries(6),
        ..CheckConfig::default()
    }
}

fn run_mode(bed: &FleetBed, compare: CompareStrategy, shards: usize) -> FleetReport {
    let sched = FleetScheduler::new(FleetConfig {
        check: config(compare),
        shards,
    });
    sched.sweep(&bed.hv, &bed.fleet)
}

fn assert_oracle(seed: u64, mode: &str, bed: &FleetBed, report: &FleetReport) {
    let ctx = format!("seed {seed}, mode {mode}");
    assert_eq!(
        report.units_failed(),
        0,
        "no unit may fail as a whole ({ctx})"
    );
    // The flagged set is exactly the infected set: every infected
    // (pool, module, vm) flagged, no clean VM flagged.
    assert_eq!(
        report.suspects(),
        bed.truth.infected,
        "flagged set != infected set ({ctx})"
    );

    assert_eq!(report.pools.len(), bed.truth.consensus.len(), "{ctx}");
    for (pool, (truth_pool, truth_modules)) in report.pools.iter().zip(&bed.truth.consensus) {
        assert_eq!(&pool.pool, truth_pool, "pool order ({ctx})");
        let lists = pool
            .lists
            .as_ref()
            .unwrap_or_else(|| panic!("{truth_pool}: list scan failed ({ctx})"));
        let mut consensus = lists.consensus_modules.clone();
        consensus.sort();
        assert_eq!(
            &consensus, truth_modules,
            "consensus module set ({truth_pool}, {ctx})"
        );
        assert_eq!(
            pool.units.len(),
            truth_modules.len(),
            "one unit per consensus module ({truth_pool}, {ctx})"
        );

        for unit in &pool.units {
            let r = unit
                .result
                .as_ref()
                .unwrap_or_else(|e| panic!("{truth_pool}/{}: {e} ({ctx})", unit.module));
            let expected_quorum = if bed
                .truth
                .degraded
                .contains(&(pool.pool.clone(), unit.module.clone()))
            {
                QuorumStatus::Degraded
            } else {
                QuorumStatus::Full
            };
            assert_eq!(
                r.quorum, expected_quorum,
                "quorum ({truth_pool}/{}, {ctx})",
                unit.module
            );
            for v in &r.verdicts {
                let lost = bed
                    .truth
                    .lost
                    .contains(&(pool.pool.clone(), v.vm_name.clone()));
                if lost {
                    assert_eq!(
                        v.status,
                        VerdictStatus::Unscannable,
                        "lost VM must be unscannable, not voted on ({truth_pool}/{}/{}, {ctx})",
                        unit.module,
                        v.vm_name
                    );
                }
            }
        }
    }
}

/// Canonical comparison with the per-bucket static pre-pass on top.
/// Returns the scheduler too so the caller can audit `analysis_runs`.
fn run_prepass_mode(bed: &FleetBed, shards: usize) -> (FleetScheduler, FleetReport) {
    let sched = FleetScheduler::new(FleetConfig {
        check: CheckConfig {
            static_prepass: true,
            ..config(CompareStrategy::Canonical)
        },
        shards,
    });
    let report = sched.sweep(&bed.hv, &bed.fleet);
    (sched, report)
}

/// Pre-pass-specific oracle: stealth victims are exactly the extra VMs the
/// static pass may name, and the per-bucket cache bounds analyzer work.
fn assert_prepass_oracle(seed: u64, bed: &FleetBed, sched: &FleetScheduler, report: &FleetReport) {
    let ctx = format!("seed {seed}, mode canonical+prepass");
    let mut flagged: Vec<(String, String, String)> = Vec::new();
    let mut run_budget = 0u64;
    for pool in &report.pools {
        for unit in &pool.units {
            let Ok(r) = &unit.result else { continue };
            for vm in r.statically_flagged_vms() {
                flagged.push((pool.pool.clone(), unit.module.clone(), vm.to_string()));
            }
            // One run for the clean bucket, plus at most one per infected
            // or stealth capture of this unit (each distinct content).
            let extra = bed
                .truth
                .infected
                .iter()
                .chain(&bed.truth.stealth)
                .filter(|(p, m, _)| p == &pool.pool && m == &unit.module)
                .count() as u64;
            run_budget += 1 + extra;
        }
    }
    flagged.sort();
    for s in &bed.truth.stealth {
        assert!(
            flagged.contains(s),
            "stealth victim not statically flagged: {s:?} ({ctx})\nflagged: {flagged:?}"
        );
    }
    for f in &flagged {
        assert!(
            bed.truth.infected.contains(f) || bed.truth.stealth.contains(f),
            "clean VM statically flagged: {f:?} ({ctx})"
        );
    }
    let runs = sched.analysis_stats().runs;
    assert!(
        runs <= run_budget,
        "analyzer ran {runs} times, bucket bound is {run_budget} ({ctx})"
    );
}

fn render(report: &FleetReport) -> String {
    serde_json::to_string_pretty(&report.to_json()).expect("report serializes")
}

#[test]
fn randomized_fleets_match_the_oracle_in_all_four_modes() {
    let cases = case_count();
    for seed in 0..cases {
        let bed = random_fleet(seed);
        let pairwise_seq = run_mode(&bed, CompareStrategy::Pairwise, 1);
        assert_oracle(seed, "pairwise/sequential", &bed, &pairwise_seq);
        let pairwise_sharded = run_mode(&bed, CompareStrategy::Pairwise, 8);
        assert_oracle(seed, "pairwise/sharded", &bed, &pairwise_sharded);
        let canonical_seq = run_mode(&bed, CompareStrategy::Canonical, 1);
        assert_oracle(seed, "canonical/sequential", &bed, &canonical_seq);
        let canonical_sharded = run_mode(&bed, CompareStrategy::Canonical, 8);
        assert_oracle(seed, "canonical/sharded", &bed, &canonical_sharded);

        // Fifth mode: canonical comparison + per-bucket static pre-pass.
        // The vote oracle is unchanged (the IAT pivot stays vote-clean);
        // the pre-pass oracle adds the stealth and run-bound checks.
        let (prepass_sched, prepass_seq) = run_prepass_mode(&bed, 1);
        assert_oracle(seed, "canonical+prepass/sequential", &bed, &prepass_seq);
        assert_prepass_oracle(seed, &bed, &prepass_sched, &prepass_seq);
        let (sharded_sched, prepass_sharded) = run_prepass_mode(&bed, 8);
        assert_oracle(seed, "canonical+prepass/sharded", &bed, &prepass_sharded);
        assert_prepass_oracle(seed, &bed, &sharded_sched, &prepass_sharded);

        // Execution mode must not change a byte of the report.
        assert_eq!(
            render(&pairwise_seq),
            render(&pairwise_sharded),
            "pairwise sweep not shard-invariant (seed {seed})"
        );
        assert_eq!(
            render(&canonical_seq),
            render(&canonical_sharded),
            "canonical sweep not shard-invariant (seed {seed})"
        );
        assert_eq!(
            render(&prepass_seq),
            render(&prepass_sharded),
            "prepass sweep not shard-invariant (seed {seed})"
        );
    }
}

// ---------------------------------------------------------------------
// Adversarial mode: active adversaries vs. the full defense stack.
// ---------------------------------------------------------------------

use modchecker::{ContinuousMonitor, MonitorConfig, ScanJitter};
use modchecker_repro::fleetgen::{adversarial_fleet, AdversaryKind};
use modchecker_repro::hypervisor::RoundCtx;

const PERIOD_NS: u64 = 1_000_000_000;
const ROUNDS: usize = 3;

/// The detection-rate regression gate: over `case_count()` seeded fleets
/// mixing active adversaries (DKOM unlinking, scrub-race restorers,
/// checker blinding — plus clean pools), every ground-truth-detectable
/// instance is detected through its intended channel and *nothing else*
/// is ever flagged:
///
/// * `dkom-unlink`: invisible to the jittered polling rounds (the module
///   is not even in the consensus), caught by the cross-view
///   hidden-module vote with all `n` VMs voting;
/// * `scrub-race`: each round's verdict matches the jitter oracle exactly
///   (suspect iff the scan-phase offset exceeds the learned restore
///   window); rounds the restore does cover leave the tamper-evidence
///   generation trail instead — the union always detects;
/// * `blind-checker`: every polling round votes clean (the decoy is
///   coherent), caught by the cross-view unlisted-image vote attributed
///   to the victim entry by its unique `SizeOfImage`;
/// * clean pools: zero suspects, zero cross-view findings, zero
///   tamper-evidence flags across every round — the false-positive pin.
///
/// Every assertion message carries the reproducing seed.
#[test]
fn adversarial_fleets_are_detected_via_their_intended_channels() {
    let cases = case_count();
    for seed in 0..cases {
        let (mut bed, mut replay) = adversarial_fleet(seed);
        let jitter = ScanJitter {
            seed: seed ^ 0x5EED_1A57,
            max_ns: 1_000_000,
        };
        let monitors: Vec<ContinuousMonitor> = bed
            .truth
            .consensus
            .iter()
            .map(|(_, modules)| {
                ContinuousMonitor::new(MonitorConfig {
                    modules: modules.clone(),
                    check: CheckConfig {
                        tamper_evidence: true,
                        ..CheckConfig::default()
                    },
                    scan_jitter: Some(jitter),
                    ..MonitorConfig::default()
                })
            })
            .collect();

        // Suspect VM names per (pool index, module, round).
        // Per pool: rounds, each a list of (module, sorted suspect names).
        type RoundSuspects = Vec<(String, Vec<String>)>;
        let mut suspects: Vec<Vec<RoundSuspects>> = vec![Vec::new(); bed.fleet.pools.len()];
        for round in 0..ROUNDS {
            let ctx = RoundCtx {
                round,
                period_ns: PERIOD_NS,
                scan_offset_ns: jitter.offset_ns(round),
            };
            replay
                .step(&mut bed.hv, &ctx)
                .unwrap_or_else(|e| panic!("seed {seed} round {round}: replay failed: {e}"));
            for (p, monitor) in monitors.iter().enumerate() {
                let vms = &bed.fleet.pools[p].vms;
                let mut this_round = Vec::new();
                for (module, result) in monitor.run_round(&bed.hv, vms) {
                    let report = result.unwrap_or_else(|e| {
                        panic!("seed {seed} round {round} pool{p} {module}: {e}")
                    });
                    let mut names: Vec<String> =
                        report.suspects().map(|v| v.vm_name.clone()).collect();
                    names.sort();
                    this_round.push((module, names));
                }
                suspects[p].push(this_round);
            }
        }

        for (p, monitor) in monitors.iter().enumerate() {
            let pool_name = &bed.fleet.pools[p].name;
            let n = bed.fleet.pools[p].vms.len();
            let adversary = bed.truth.evasive.iter().find(|e| &e.pool == pool_name);
            let cv = monitor
                .run_crossview(&bed.hv, &bed.fleet.pools[p].vms)
                .unwrap_or_else(|e| panic!("seed {seed} {pool_name}: cross-view failed: {e}"));
            let flagged = monitor.silent_restores();

            match adversary.map(|e| e.kind) {
                None => {
                    for (round, mods) in suspects[p].iter().enumerate() {
                        for (module, names) in mods {
                            assert!(
                                names.is_empty(),
                                "seed {seed} {pool_name} round {round} {module}: \
                                 clean pool flagged {names:?}"
                            );
                        }
                    }
                    assert!(
                        cv.is_clean(),
                        "seed {seed} {pool_name}: clean pool cross-view findings: {cv}"
                    );
                    assert!(
                        flagged.is_empty(),
                        "seed {seed} {pool_name}: clean pool tamper flags: {flagged:?}"
                    );
                }
                Some(AdversaryKind::Dkom) => {
                    let truth = adversary.unwrap();
                    for (round, mods) in suspects[p].iter().enumerate() {
                        for (module, names) in mods {
                            assert!(
                                names.is_empty(),
                                "seed {seed} {pool_name} round {round} {module}: \
                                 polling must not see the unlinked module's pool"
                            );
                        }
                    }
                    let hidden: Vec<_> = cv.hidden_modules().collect();
                    assert_eq!(
                        hidden.len(),
                        1,
                        "seed {seed} {pool_name}: expected one hidden-module finding: {cv}"
                    );
                    assert_eq!(
                        hidden[0].module.as_deref(),
                        Some(truth.module.as_str()),
                        "seed {seed} {pool_name}"
                    );
                    assert_eq!(
                        hidden[0].votes, n,
                        "seed {seed} {pool_name}: unlinked on all VMs, all must vote"
                    );
                    assert_eq!(
                        cv.unlisted_images().count(),
                        0,
                        "seed {seed} {pool_name}: {cv}"
                    );
                    assert!(flagged.is_empty(), "seed {seed} {pool_name}: {flagged:?}");
                }
                Some(AdversaryKind::Scrub) => {
                    let truth = adversary.unwrap();
                    let victim = truth.vm.clone().expect("scrub truth names its victim");
                    // Jitter channel: suspect exactly on rounds whose
                    // scan-phase offset exceeds the learned window.
                    let mut jitter_hits = 0usize;
                    for (round, mods) in suspects[p].iter().enumerate() {
                        for (module, names) in mods {
                            if *module == truth.module && jitter.offset_ns(round) > truth.window_ns
                            {
                                assert_eq!(
                                    names,
                                    &vec![victim.clone()],
                                    "seed {seed} {pool_name} round {round}: jittered scan \
                                     (offset {} > window {}) must catch the victim",
                                    jitter.offset_ns(round),
                                    truth.window_ns
                                );
                                jitter_hits += 1;
                            } else {
                                assert!(
                                    names.is_empty(),
                                    "seed {seed} {pool_name} round {round} {module}: \
                                     unexpected suspects {names:?}"
                                );
                            }
                        }
                    }
                    // Tamper-evidence channel: a round r ≥ 1 whose
                    // at-scan bytes equal round r−1's leaves the moved-
                    // generations/identical-bytes trail.
                    let visible = |r: usize| jitter.offset_ns(r) > truth.window_ns;
                    let tamper_expected = (1..ROUNDS).any(|r| visible(r) == visible(r - 1));
                    let expected_flag = (
                        bed.guests[p]
                            .iter()
                            .find(|g| bed.hv.vm(g.vm).unwrap().name == victim)
                            .unwrap()
                            .vm,
                        truth.module.clone(),
                    );
                    if tamper_expected {
                        assert_eq!(
                            flagged,
                            vec![expected_flag],
                            "seed {seed} {pool_name}: tamper evidence must flag the victim"
                        );
                    } else {
                        assert!(
                            flagged.is_empty() || flagged == vec![expected_flag],
                            "seed {seed} {pool_name}: stray tamper flags {flagged:?}"
                        );
                    }
                    assert!(
                        jitter_hits > 0 || tamper_expected,
                        "seed {seed} {pool_name}: scrub-race escaped both channels"
                    );
                    assert!(cv.is_clean(), "seed {seed} {pool_name}: {cv}");
                }
                Some(AdversaryKind::Blind) => {
                    let truth = adversary.unwrap();
                    for (round, mods) in suspects[p].iter().enumerate() {
                        for (module, names) in mods {
                            assert!(
                                names.is_empty(),
                                "seed {seed} {pool_name} round {round} {module}: \
                                 the coherent decoy must vote clean, got {names:?}"
                            );
                        }
                    }
                    let unlisted: Vec<_> = cv.unlisted_images().collect();
                    assert_eq!(
                        unlisted.len(),
                        1,
                        "seed {seed} {pool_name}: expected one unlisted-image finding: {cv}"
                    );
                    assert_eq!(
                        unlisted[0].module.as_deref(),
                        Some(truth.module.as_str()),
                        "seed {seed} {pool_name}: attribution by unique SizeOfImage"
                    );
                    assert_eq!(
                        unlisted[0].votes, n,
                        "seed {seed} {pool_name}: blinded on all VMs, all must vote"
                    );
                    assert_eq!(
                        cv.hidden_modules().count(),
                        0,
                        "seed {seed} {pool_name}: {cv}"
                    );
                    assert!(flagged.is_empty(), "seed {seed} {pool_name}: {flagged:?}");
                }
            }
        }
    }
}
