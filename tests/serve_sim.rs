//! Randomized simulation suite for the attestation daemon.
//!
//! Each seeded case builds a random infected fleet (the same
//! [`modchecker_repro::fleetgen::random_fleet`] generator the scheduler
//! suite uses — lost VMs, transient fault plans and code patches
//! included), generates a seeded open-loop query stream against the
//! fleet's ground-truth catalog, and runs the daemon with model knobs
//! varied by the seed. The robustness contract then holds in every case:
//!
//! * **No silent drops** — every input query appears in the report with a
//!   typed disposition; answered + rejected partitions the stream.
//! * **Deadline honesty** — no query's account extends past its deadline:
//!   answers are served at or before `arrival + deadline`, and a
//!   deadline-expired shed is charged exactly the deadline.
//! * **Bounded queue** — the in-flight high-water mark never exceeds
//!   `queue_capacity`.
//! * **Quarantine routing** — a VM the daemon routed around never appears
//!   in that answer's verdict (neither as a suspect nor as statically
//!   flagged): quarantined evidence is withheld, not served.
//! * **Execution-knob determinism** — the full `ServeReport` JSON is
//!   byte-identical between shards=1 and shards=4; worker layout must not
//!   change a single byte.
//!
//! Every assertion message carries the reproducing seed. Case count
//! defaults to 120 and is overridable via `SERVE_SIM_CASES`.

use mc_hypervisor::SimDuration;
use mc_loadgen::QueryProfile;
use modchecker::{AttestServer, Disposition, FleetConfig, QuotaPolicy, ServeConfig, ServeReport};
use modchecker_repro::fleetgen::random_fleet;

fn case_count() -> u64 {
    std::env::var("SERVE_SIM_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(120)
}

/// Model knobs varied per seed — small queues and tight quotas on some
/// seeds so the rejection paths actually fire; generous ones on others so
/// the serving paths dominate.
fn config_for(seed: u64, shards: usize) -> ServeConfig {
    ServeConfig {
        fleet: FleetConfig {
            shards,
            ..FleetConfig::default()
        },
        queue_capacity: 2 + (seed % 15) as usize,
        quota: QuotaPolicy {
            rate_per_sec: 500.0 + 250.0 * (seed % 7) as f64,
            burst: 2.0 + (seed % 5) as f64,
        },
        refresh_interval: SimDuration::from_millis(10 + seed % 20),
        freshness_window: SimDuration::from_millis(15 + seed % 25),
        ..ServeConfig::default()
    }
}

#[test]
fn serve_contract_holds_across_random_fleets() {
    let cases = case_count();
    for seed in 0..cases {
        let bed = random_fleet(seed);
        let catalog: Vec<(String, String)> = bed
            .truth
            .consensus
            .iter()
            .flat_map(|(pool, ms)| ms.iter().map(move |m| (pool.clone(), m.clone())))
            .collect();
        if catalog.is_empty() {
            continue;
        }
        let profile = QueryProfile {
            seed: seed ^ 0xD1CE,
            queries: 80,
            tenants: 1 + (seed % 4) as usize,
            unknown_rate: 0.05,
            ..QueryProfile::default()
        };
        let stream = mc_loadgen::generate(&profile, &catalog);

        let report = AttestServer::new(config_for(seed, 1)).run(&bed.hv, &bed.fleet, &stream);
        check_contract(
            seed,
            &report,
            &stream.len(),
            config_for(seed, 1).queue_capacity,
        );

        // Execution knobs must not change a byte.
        let sharded = AttestServer::new(config_for(seed, 4)).run(&bed.hv, &bed.fleet, &stream);
        assert_eq!(
            serde_json::to_string_pretty(&report.to_json()).unwrap(),
            serde_json::to_string_pretty(&sharded.to_json()).unwrap(),
            "seed {seed}: shards=4 changed the report bytes"
        );
    }
}

fn check_contract(seed: u64, report: &ServeReport, input_len: &usize, queue_capacity: usize) {
    // No silent drops: the report accounts for every input query, and the
    // typed outcomes partition it.
    assert_eq!(
        report.queries.len(),
        *input_len,
        "seed {seed}: report lost queries"
    );
    assert_eq!(
        report.answered() + report.rejected(),
        *input_len,
        "seed {seed}: answered + rejected does not partition the stream"
    );

    // Bounded admission: the in-flight high-water mark respects the knob.
    assert!(
        report.max_queue_depth <= queue_capacity,
        "seed {seed}: queue depth {} exceeded capacity {queue_capacity}",
        report.max_queue_depth
    );

    for sq in &report.queries {
        // Deadline honesty: nothing in the account extends past the
        // query's own budget.
        assert!(
            sq.latency <= sq.deadline,
            "seed {seed}: query #{} latency {} past deadline {}",
            sq.seq,
            sq.latency,
            sq.deadline
        );
        match &sq.disposition {
            Disposition::Answered {
                verdict,
                routed_around,
                ..
            } => {
                // Quarantine routing: withheld VMs never surface in the
                // verdict they were routed out of.
                if let Some(v) = verdict {
                    for vm in routed_around {
                        assert!(
                            !v.suspects.contains(vm) && !v.flagged.contains(vm),
                            "seed {seed}: query #{} served quarantined VM {vm} in its verdict",
                            sq.seq
                        );
                    }
                }
            }
            Disposition::Rejected(_) => {
                // Typed rejection — nothing more to hold, the type system
                // already did.
            }
        }
    }
}
