//! Observability suite: the exported spans and metrics must be a faithful,
//! deterministic rendering of the scan.
//!
//! 1. **No lost simulated time.** The `check_pool` root span's duration
//!    equals the report's wall-clock total, and its children (per-VM
//!    `capture` spans plus the pool-level `vote`) sum to it exactly — under
//!    both compare strategies.
//! 2. **Deterministic export.** Under the same fault seed, repeated scans
//!    export byte-identical metrics JSON and span trees.
//! 3. **Round-trip.** The JSON exporter's output parses back to the same
//!    numbers, and every Prometheus text line is well formed.

use mc_hypervisor::{AddressWidth, FaultPlan};
use mc_pe::corpus::ModuleBlueprint;
use modchecker::{observe_scan, CheckConfig, CompareStrategy, ModChecker, ScanObservation};
use modchecker_repro::testbed::Testbed;

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

fn chaos_scan() -> ScanObservation {
    let mut bed = bed(6);
    bed.guests[4]
        .patch_module(&mut bed.hv, "ndis.sys", 0x1007, &[0x90, 0x90])
        .unwrap();
    bed.hv.inject_fault_plan(FaultPlan::chaos(0xC0FFEE, 0.06));
    let report = ModChecker::new()
        .check_pool(&bed.hv, &bed.vm_ids, "ndis.sys")
        .unwrap();
    observe_scan(&report)
}

#[test]
fn span_durations_sum_to_the_report_wall_clock_in_both_modes() {
    for mode in [CompareStrategy::Pairwise, CompareStrategy::Canonical] {
        let bed = bed(5);
        let report = ModChecker::with_config(CheckConfig {
            compare: mode,
            ..CheckConfig::default()
        })
        .check_pool(&bed.hv, &bed.vm_ids, "hal.dll")
        .unwrap();
        let obs = observe_scan(&report);

        assert_eq!(
            obs.trace.duration_ns,
            report.times.total().as_nanos(),
            "{mode:?}: root span must carry the scan's wall-clock"
        );
        assert_eq!(
            obs.trace.children_total_ns(),
            obs.trace.duration_ns,
            "{mode:?}: children must cover the root with no lost time"
        );
        assert_eq!(obs.trace.self_time_ns(), 0, "{mode:?}");

        // 5 capture spans + 1 vote span, each capture internally covered
        // by page_map + parse + hash.
        assert_eq!(obs.trace.children.len(), 6, "{mode:?}");
        let captures: Vec<_> = obs
            .trace
            .children
            .iter()
            .filter(|c| c.name == "capture")
            .collect();
        assert_eq!(captures.len(), 5, "{mode:?}");
        for c in &captures {
            assert_eq!(
                c.children_total_ns(),
                c.duration_ns,
                "{mode:?}: capture {:?} leaks simulated time",
                c.attrs
            );
        }
        assert!(
            obs.trace.children.iter().any(|c| c.name == "vote"),
            "{mode:?}"
        );
    }
}

#[test]
fn metrics_export_is_byte_identical_across_runs_under_chaos() {
    let export = || {
        let obs = chaos_scan();
        let metrics = serde_json::to_string_pretty(&obs.registry.to_json()).unwrap();
        let trace = obs.trace.to_jsonl();
        (metrics, trace)
    };
    let first = export();
    let second = export();
    assert_eq!(first.0, second.0, "metrics JSON must follow from the seed");
    assert_eq!(first.1, second.1, "span tree must follow from the seed");
    // And the chaos actually left fingerprints worth exporting.
    let obs = chaos_scan();
    assert!(obs.registry.counter("vmi_retries_total") > 0);
    assert!(obs.registry.counter("hv_fault_injections_total") > 0);
    assert_eq!(obs.registry.counter("scan_verdict_suspect_total"), 1);
}

#[test]
fn json_export_round_trips_through_the_parser() {
    let obs = chaos_scan();
    let rendered = serde_json::to_string_pretty(&obs.registry.to_json()).unwrap();
    let parsed = serde_json::from_str(&rendered).expect("exported metrics must re-parse");

    let counters = parsed
        .get("counters")
        .and_then(|c| c.as_object())
        .expect("counters object");
    for (name, value) in counters {
        let u = value.as_u64().expect("counters are integers");
        assert_eq!(u, obs.registry.counter(name), "{name}");
    }
    assert!(counters.iter().any(|(k, _)| k == "scan_rounds_total"));

    let gauges = parsed
        .get("gauges")
        .and_then(|g| g.as_object())
        .expect("gauges object");
    for (name, value) in gauges {
        let f = value.as_f64().expect("gauges are numbers");
        assert_eq!(Some(f), obs.registry.gauge(name), "{name}");
    }

    let hist = parsed
        .get("histograms")
        .and_then(|h| h.get("scan_vm_capture_ms"))
        .expect("per-VM capture histogram");
    let h = obs.registry.histogram("scan_vm_capture_ms").unwrap();
    assert_eq!(
        hist.get("count").and_then(serde_json::Value::as_u64),
        Some(h.count())
    );
}

#[test]
fn prometheus_text_export_is_well_formed() {
    let obs = chaos_scan();
    let text = obs.registry.to_prometheus_text();
    assert!(!text.is_empty());
    let mut samples = 0usize;
    for line in text.lines() {
        assert!(
            mc_obs::is_valid_prometheus_line(line),
            "bad exposition line: {line:?}"
        );
        if !line.starts_with('#') && !line.is_empty() {
            samples += 1;
        }
    }
    assert!(samples > 0, "exposition must carry sample lines");
    assert!(text.contains("scan_rounds_total"));
    assert!(text.contains("scan_vm_capture_ms"));
}

#[test]
fn trace_jsonl_is_one_parsable_span_per_line() {
    let obs = chaos_scan();
    let jsonl = obs.trace.to_jsonl();
    let mut names = Vec::new();
    for line in jsonl.lines() {
        let span = serde_json::from_str(line).expect("each trace line must be standalone JSON");
        names.push(
            span.get("name")
                .and_then(|n| n.as_str())
                .expect("span name")
                .to_string(),
        );
        assert!(span
            .get("duration_ns")
            .and_then(serde_json::Value::as_u64)
            .is_some());
    }
    assert_eq!(names.first().map(String::as_str), Some("check_pool"));
    // Depth-first: every VM contributes capture -> page_map -> parse ->
    // hash, then the pool-level vote closes the scan.
    assert_eq!(names.iter().filter(|n| *n == "capture").count(), 6);
    assert_eq!(names.last().map(String::as_str), Some("vote"));
}
