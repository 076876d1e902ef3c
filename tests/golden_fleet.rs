//! Golden snapshot tests: full `FleetReport` and metrics JSON pinned for
//! two fixed generator seeds under `tests/golden/`.
//!
//! The sweep is re-run in three execution configurations (sequential,
//! moderately sharded, heavily sharded); all three must serialize
//! byte-identically and match the pinned file. Refresh the snapshots
//! after an intentional format change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_fleet
//! ```
//!
//! (documented in README; a bare mismatch message repeats the recipe).

use std::fs;
use std::path::PathBuf;

use modchecker::{observe_fleet, FleetConfig, FleetScheduler};
use modchecker_repro::fleetgen::random_fleet;

const SEEDS: [u64; 2] = [11, 42];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {}: {e}\nrun `UPDATE_GOLDEN=1 cargo test --test golden_fleet` to create it", path.display())
    });
    assert_eq!(
        expected, actual,
        "golden mismatch for {name}\nif the change is intentional, refresh with `UPDATE_GOLDEN=1 cargo test --test golden_fleet`"
    );
}

#[test]
fn fleet_report_and_metrics_json_are_pinned_and_mode_invariant() {
    for seed in SEEDS {
        let bed = random_fleet(seed);
        let mut first: Option<(modchecker::FleetReport, String)> = None;
        for shards in [1, 4, 8] {
            let sched = FleetScheduler::new(FleetConfig {
                shards,
                ..FleetConfig::default()
            });
            let report = sched.sweep(&bed.hv, &bed.fleet);
            let rendered =
                serde_json::to_string_pretty(&report.to_json()).expect("serializes") + "\n";
            match &first {
                None => first = Some((report, rendered)),
                Some((_, baseline)) => assert_eq!(
                    baseline, &rendered,
                    "seed {seed}: shards={shards} changed the report bytes"
                ),
            }
        }
        let (report, rendered) = first.expect("at least one configuration ran");
        check_golden(&format!("fleet_report_{seed}.json"), &rendered);

        let obs = observe_fleet(&report);
        let metrics =
            serde_json::to_string_pretty(&obs.registry.to_json()).expect("serializes") + "\n";
        check_golden(&format!("fleet_metrics_{seed}.json"), &metrics);
    }
}
