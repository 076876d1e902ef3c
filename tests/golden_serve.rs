//! Golden snapshot tests: full `ServeReport` JSON pinned for two fixed
//! seeds under `tests/golden/`.
//!
//! Each seed fixes the fleet topology (including its infections and
//! fault plans) *and* the query stream; the daemon is run in three
//! execution configurations (sequential, moderately sharded, heavily
//! sharded), all of which must serialize byte-identically and match the
//! pinned file. Refresh the snapshots after an intentional format change
//! with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_serve
//! ```
//!
//! (documented in README; a bare mismatch message repeats the recipe).

use std::fs;
use std::path::PathBuf;

use mc_loadgen::QueryProfile;
use modchecker::{AttestServer, FleetConfig, ServeConfig};
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
        panic!("missing golden {}: {e}\nrun `UPDATE_GOLDEN=1 cargo test --test golden_serve` to create it", path.display())
    });
    assert_eq!(
        expected, actual,
        "golden mismatch for {name}\nif the change is intentional, refresh with `UPDATE_GOLDEN=1 cargo test --test golden_serve`"
    );
}

#[test]
fn serve_report_json_is_pinned_and_mode_invariant() {
    for seed in SEEDS {
        let bed = random_fleet(seed);
        let catalog: Vec<(String, String)> = bed
            .truth
            .consensus
            .iter()
            .flat_map(|(pool, ms)| ms.iter().map(move |m| (pool.clone(), m.clone())))
            .collect();
        let stream = mc_loadgen::generate(
            &QueryProfile {
                seed,
                queries: 120,
                ..QueryProfile::default()
            },
            &catalog,
        );

        let mut baseline: Option<String> = None;
        for shards in [1, 4, 8] {
            let config = ServeConfig {
                fleet: FleetConfig {
                    shards,
                    ..FleetConfig::default()
                },
                ..ServeConfig::default()
            };
            let report = AttestServer::new(config).run(&bed.hv, &bed.fleet, &stream);
            let rendered =
                serde_json::to_string_pretty(&report.to_json()).expect("serializes") + "\n";
            match &baseline {
                None => baseline = Some(rendered),
                Some(first) => assert_eq!(
                    first, &rendered,
                    "seed {seed}: shards={shards} changed the report bytes"
                ),
            }
        }
        check_golden(
            &format!("serve_report_{seed}.json"),
            &baseline.expect("at least one configuration ran"),
        );
    }
}
