//! FIG-SERVE — attestation daemon under a fault-rate sweep.
//!
//! Builds one clean multi-pool cloud per fault rate, drives the
//! `AttestServer` with the same seeded open-loop query stream, and reads
//! back sustained answer rate, latency percentiles, staleness, and the
//! answered/degraded/shed mix. Real wall-clock is irrelevant — the daemon
//! runs on the simulated clock, so the numbers are exact and
//! deterministic, and the figure doubles as a regression gate.
//!
//! Shape claims verified:
//! * every query gets a typed answer or a typed rejection — answered +
//!   rejected equals the stream length at every fault rate (the
//!   no-silent-drop invariant);
//! * the report is byte-identical across shard counts at every fault
//!   rate — the serve determinism contract;
//! * p99 staleness stays bounded by the refresh cadence: degraded-answer
//!   serving never hands out state older than a few refresh intervals;
//! * answers degrade monotonically in aggregate: the fresh-answer count
//!   at the highest fault rate does not exceed the fault-free count.
//!
//! Emits the sweep as `BENCH_serve.json` (`--out <PATH>` overrides)
//! alongside the usual CSV block.

use mc_bench::print_csv;
use mc_hypervisor::FaultPlan;
use mc_loadgen::QueryProfile;
use modchecker::{AttestServer, Confidence, FleetConfig, ServeConfig, ServeReport};
use modchecker_repro::fleetgen::uniform_fleet;

struct Row {
    fault_rate: f64,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    p99_staleness_ms: f64,
    fresh: usize,
    stale: usize,
    unscannable: usize,
    rejected: usize,
    rescans: usize,
    quarantined: usize,
}

impl std::fmt::Display for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.2},{:.1},{:.3},{:.3},{:.3},{},{},{},{},{},{}",
            self.fault_rate,
            self.qps,
            self.p50_ms,
            self.p99_ms,
            self.p99_staleness_ms,
            self.fresh,
            self.stale,
            self.unscannable,
            self.rejected,
            self.rescans,
            self.quarantined
        )
    }
}

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn arg_str(key: &str, default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

/// One daemon run at the given fault rate and execution knobs. A fresh
/// cloud per run keeps runs independent; everything is seeded, so the
/// same arguments always produce the same report.
fn run(pools: usize, queries: usize, fault_rate: f64, shards: usize) -> ServeReport {
    let mut bed = uniform_fleet(pools, 3, 2, 1);
    if fault_rate > 0.0 {
        bed.hv
            .inject_fault_plan(FaultPlan::transient(11, fault_rate));
    }
    let catalog: Vec<(String, String)> = bed
        .truth
        .consensus
        .iter()
        .flat_map(|(pool, modules)| modules.iter().map(move |m| (pool.clone(), m.clone())))
        .collect();
    let profile = QueryProfile {
        queries,
        ..QueryProfile::default()
    };
    let stream = mc_loadgen::generate(&profile, &catalog);
    let config = ServeConfig {
        fleet: FleetConfig {
            shards,
            ..FleetConfig::default()
        },
        ..ServeConfig::default()
    };
    AttestServer::new(config).run(&bed.hv, &bed.fleet, &stream)
}

fn main() {
    let smoke = flag("--smoke");
    let out = arg_str("--out", "BENCH_serve.json");
    let (pools, queries) = if smoke { (2, 150) } else { (4, 600) };
    let rates: &[f64] = if smoke {
        &[0.0, 0.2]
    } else {
        &[0.0, 0.05, 0.15, 0.3]
    };
    // The staleness bound the daemon is expected to hold: state served to
    // any verdict-carrying answer is younger than a few refresh cadences
    // even while faults stretch the sweeps.
    let staleness_bound_ms = ServeConfig::default().refresh_interval.as_millis_f64() * 3.0;

    let mut rows = Vec::new();
    for &rate in rates {
        let report = run(pools, queries, rate, 1);

        // Determinism contract: the shard count must not change a byte.
        let rendered = serde_json::to_string_pretty(&report.to_json()).expect("serializes");
        for shards in [4, 8] {
            let other = run(pools, queries, rate, shards);
            let other_rendered =
                serde_json::to_string_pretty(&other.to_json()).expect("serializes");
            assert_eq!(
                rendered, other_rendered,
                "rate={rate}: shards={shards} changed the report bytes"
            );
        }

        // No silent drops: the typed outcomes partition the stream.
        assert_eq!(
            report.answered() + report.rejected(),
            queries,
            "rate={rate}: some query has no typed outcome"
        );

        let ms = |d: Option<mc_hypervisor::SimDuration>| d.map_or(0.0, |d| d.as_millis_f64());
        rows.push(Row {
            fault_rate: rate,
            qps: report.answered_per_sec(),
            p50_ms: ms(report.latency_percentile(50.0)),
            p99_ms: ms(report.latency_percentile(99.0)),
            p99_staleness_ms: ms(report.staleness_percentile(99.0)),
            fresh: report.answered_at(Confidence::Fresh),
            stale: report.answered_at(Confidence::Stale),
            unscannable: report.answered_at(Confidence::Unscannable),
            rejected: report.rejected(),
            rescans: report.rescans,
            quarantined: report.quarantined_vms.len(),
        });
    }

    print_csv(
        "fig_serve",
        "fault_rate,qps,p50_ms,p99_ms,p99_staleness_ms,fresh,stale,unscannable,rejected,rescans,quarantined",
        &rows,
    );

    let json = serde_json::json!({
        "figure": "fig_serve",
        "smoke": smoke,
        "pools": pools,
        "queries": queries,
        "staleness_bound_ms": staleness_bound_ms,
        "rows": rows.iter().map(|r| serde_json::json!({
            "fault_rate": r.fault_rate,
            "qps": r.qps,
            "p50_ms": r.p50_ms,
            "p99_ms": r.p99_ms,
            "p99_staleness_ms": r.p99_staleness_ms,
            "fresh": r.fresh,
            "stale": r.stale,
            "unscannable": r.unscannable,
            "rejected": r.rejected,
            "rescans": r.rescans,
            "quarantined": r.quarantined,
        })).collect::<Vec<_>>(),
    });
    let rendered = serde_json::to_string_pretty(&json).expect("render BENCH_serve.json");
    std::fs::write(&out, rendered + "\n").expect("write BENCH_serve.json");
    println!("\nwrote {out}");

    println!("\nFIG-SERVE shape checks:");
    for r in &rows {
        println!(
            "  rate {:.2}: {:.1} answers/s, p99 {:.3} ms, staleness p99 {:.3} ms (bound {staleness_bound_ms:.1} ms)",
            r.fault_rate, r.qps, r.p99_ms, r.p99_staleness_ms
        );
        assert!(
            r.p99_staleness_ms <= staleness_bound_ms,
            "rate {:.2}: p99 staleness {:.3} ms exceeds the {staleness_bound_ms:.1} ms bound",
            r.fault_rate,
            r.p99_staleness_ms
        );
        assert!(
            r.fresh > 0,
            "rate {:.2}: no fresh answers at all",
            r.fault_rate
        );
    }
    let (first, last) = (rows.first().expect("rows"), rows.last().expect("rows"));
    assert!(
        last.fresh <= first.fresh,
        "fresh answers grew under faults: {} at rate {:.2} vs {} fault-free",
        last.fresh,
        last.fault_rate,
        first.fresh
    );

    println!("\nFIG-SERVE reproduced: typed outcomes for every query, bounded staleness, bytes stable across workers.");
}
