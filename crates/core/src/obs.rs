//! Observability glue: turns finished check reports into `mc-obs` metric
//! samples and simulated-time trace spans.
//!
//! Everything here is *post-processing*: the scan itself stays free of
//! instrumentation side channels, and the spans/metrics are derived from
//! the deterministic numbers already carried by [`PoolCheckReport`] /
//! [`ModuleCheckReport`]. That is what makes the exported values
//! byte-identical at any worker or shard count under the same fault seed
//! — the report is, and this module adds nothing the report does not
//! already pin down.
//!
//! The span tree mirrors the paper's component pipeline: a `check_pool`
//! root covers the whole scan; under it one `capture` span per VM nests
//! `page_map` (Module-Searcher), `parse` (Module-Parser) and `hash`
//! (Integrity-Checker header work); a final `vote` span carries the
//! pool-level pairwise/canonical comparison time. By construction the
//! root's simulated duration equals [`PoolCheckReport::times`]`.total()`
//! and the children sum exactly to the root — no lost or double-charged
//! simulated time.

use mc_hypervisor::SimDuration;
use mc_obs::{MetricsRegistry, TraceSpan};

use crate::report::{FleetReport, ModuleCheckReport, PoolCheckReport, QuorumStatus, VerdictStatus};
use crate::serve::{Confidence, Disposition, Rejected, ServeReport};

/// A pool scan rendered for export: the metrics snapshot plus the span
/// tree. Build one with [`observe_scan`].
#[derive(Clone, Debug)]
pub struct ScanObservation {
    /// Counter/gauge/histogram snapshot derived from the report.
    pub registry: MetricsRegistry,
    /// Simulated-time span tree rooted at `check_pool`.
    pub trace: TraceSpan,
}

/// Derives both the metrics snapshot and the span tree from one pool
/// report.
pub fn observe_scan(report: &PoolCheckReport) -> ScanObservation {
    let mut registry = MetricsRegistry::new();
    record_pool_report(report, &mut registry);
    ScanObservation {
        registry,
        trace: pool_span(report),
    }
}

/// Builds the simulated-time span tree for one pool scan.
///
/// Invariants (tested): the root's `duration_ns` equals
/// `report.times.total().as_nanos()`, and the children (per-VM `capture`
/// spans plus the `vote` span) sum exactly to the root.
pub fn pool_span(report: &PoolCheckReport) -> TraceSpan {
    let mut root = mc_obs::span!("check_pool", module = report.module, quorum = report.quorum)
        .with_duration_ns(report.times.total().as_nanos());
    let mut capture_total = SimDuration::ZERO;
    for vm in &report.per_vm {
        capture_total += vm.times.total();
        let mut capture = mc_obs::span!("capture", vm = vm.vm_name)
            .with_duration_ns(vm.times.total().as_nanos())
            .with_retries(vm.vmi.retries)
            .with_faults(vm.fault_injections);
        capture.push(
            TraceSpan::new("page_map")
                .with_attr("pages", &vm.vmi.pages_mapped)
                .with_duration_ns(vm.times.searcher.as_nanos()),
        );
        capture.push(TraceSpan::new("parse").with_duration_ns(vm.times.parser.as_nanos()));
        capture.push(TraceSpan::new("hash").with_duration_ns(vm.times.checker.as_nanos()));
        root.push(capture);
    }
    // The vote is pool-level work: whatever checker time the per-VM
    // captures did not account for (pairwise diffs / canonical
    // normalization, charged to the shared ledger).
    let vote_ns = report
        .times
        .total()
        .as_nanos()
        .saturating_sub(capture_total.as_nanos());
    root.push(
        TraceSpan::new("vote")
            .with_attr("pairs", &report.matrix.len())
            .with_duration_ns(vote_ns),
    );
    // The static pre-pass charges no simulated time (it reuses captured
    // bytes; determinism demands the times stay execution-independent), so
    // its span is zero-duration evidence — emitted only when it found
    // something, keeping clean-scan trees identical to pre-pass-off runs.
    if !report.static_findings.is_empty() {
        root.push(
            TraceSpan::new("static_analysis")
                .with_attr("flagged_vms", &report.statically_flagged_vms().len())
                .with_duration_ns(0),
        );
    }
    root
}

/// Records one pool scan into a shared registry: cumulative counters
/// (rounds, verdicts, quorum degradations, introspection work, Algorithm 2
/// accounting), last-scan gauges (`scan_*_ms`, pool sizes) and the per-VM
/// capture-time histogram.
#[allow(clippy::cast_precision_loss)]
pub fn record_pool_report(report: &PoolCheckReport, reg: &mut MetricsRegistry) {
    reg.counter_add("scan_rounds_total", 1);
    match report.quorum {
        QuorumStatus::Full => {}
        QuorumStatus::Degraded => reg.counter_add("scan_quorum_degraded_total", 1),
        QuorumStatus::Lost => reg.counter_add("scan_quorum_lost_total", 1),
    }
    for v in &report.verdicts {
        let name = match v.status {
            VerdictStatus::Clean => "scan_verdict_clean_total",
            VerdictStatus::Suspect => "scan_verdict_suspect_total",
            VerdictStatus::Unscannable => "scan_verdict_unscannable_total",
        };
        reg.counter_add(name, 1);
    }
    let (slots, residuals) = report.matrix.iter().fold((0u64, 0u64), |(s, r), o| {
        (s + o.slots_adjusted as u64, r + o.residual_diffs as u64)
    });
    reg.counter_add("checker_slots_adjusted_total", slots);
    reg.counter_add("checker_residual_diffs_total", residuals);
    reg.counter_add("hv_fault_injections_total", report.fault_injections);
    reg.counter_add(
        "analysis_flagged_vms_total",
        report.static_findings.len() as u64,
    );
    reg.counter_add(
        "analysis_findings_total",
        report
            .static_findings
            .iter()
            .map(|r| r.diagnostics.len() as u64)
            .sum(),
    );
    report.vmi.record_into(reg);

    reg.gauge_set("scan_pool_vms", report.vm_names.len() as f64);
    reg.gauge_set("scan_scanned_vms", report.scanned as f64);
    reg.gauge_set("scan_searcher_ms", report.times.searcher.as_millis_f64());
    reg.gauge_set("scan_parser_ms", report.times.parser.as_millis_f64());
    reg.gauge_set("scan_checker_ms", report.times.checker.as_millis_f64());
    reg.gauge_set("scan_total_ms", report.times.total().as_millis_f64());
    for vm in &report.per_vm {
        reg.observe("scan_vm_capture_ms", vm.times.total().as_millis_f64());
    }
}

/// Derives the metrics snapshot and the `fleet → pool → unit` span tree
/// from one fleet sweep. Per-unit pool metrics are folded into the same
/// registry (canonical order, so the export is execution-order
/// independent just like the report itself).
pub fn observe_fleet(report: &FleetReport) -> ScanObservation {
    let mut registry = MetricsRegistry::new();
    record_fleet_report(report, &mut registry);
    for unit in report.units() {
        if let Ok(r) = &unit.result {
            record_pool_report(r, &mut registry);
        }
    }
    ScanObservation {
        registry,
        trace: fleet_span(report),
    }
}

/// Records one fleet sweep into a shared registry under the `fleet_*`
/// taxonomy: cumulative counters (sweeps, units by outcome, pools,
/// unassigned VMs), last-sweep gauges and the per-unit duration histogram.
#[allow(clippy::cast_precision_loss)]
pub fn record_fleet_report(report: &FleetReport, reg: &mut MetricsRegistry) {
    reg.counter_add("fleet_sweeps_total", 1);
    reg.counter_add("fleet_pools_total", report.pools.len() as u64);
    reg.counter_add("fleet_units_total", report.units_total() as u64);
    reg.counter_add("fleet_units_failed_total", report.units_failed() as u64);
    let (clean, suspect) = report
        .units()
        .fold((0u64, 0u64), |(c, s), u| match &u.result {
            Ok(r) if r.suspects().next().is_none() => (c + 1, s),
            Ok(_) => (c, s + 1),
            Err(_) => (c, s),
        });
    reg.counter_add("fleet_units_clean_total", clean);
    reg.counter_add("fleet_units_suspect_total", suspect);
    reg.counter_add("fleet_unassigned_vms_total", report.unassigned.len() as u64);

    reg.gauge_set("fleet_pools", report.pools.len() as f64);
    reg.gauge_set("fleet_units", report.units_total() as f64);
    reg.gauge_set(
        "fleet_vms",
        report.pools.iter().map(|p| p.vm_names.len()).sum::<usize>() as f64,
    );
    reg.gauge_set(
        "fleet_wall_ms",
        report.simulated_wall_sequential().as_millis_f64(),
    );
    for unit in report.units() {
        reg.observe("fleet_unit_ms", unit.duration().as_millis_f64());
    }
}

/// Builds the `fleet → pool → unit` span tree for one sweep.
///
/// Invariants (tested): the root's duration equals
/// [`FleetReport::simulated_wall_sequential`], each `pool` span equals its
/// `listdiff` child plus its `unit` children exactly, and the pool spans
/// sum exactly to the root — the same no-lost-nanoseconds discipline as
/// [`pool_span`], one layer up.
pub fn fleet_span(report: &FleetReport) -> TraceSpan {
    let mut root = mc_obs::span!(
        "fleet",
        pools = report.pools.len(),
        units = report.units_total()
    )
    .with_duration_ns(report.simulated_wall_sequential().as_nanos());
    for pool in &report.pools {
        let mut pspan =
            mc_obs::span!("pool", name = pool.pool).with_duration_ns(pool.duration().as_nanos());
        let list_elapsed = pool.lists.as_ref().map_or(SimDuration::ZERO, |l| l.elapsed);
        pspan.push(
            TraceSpan::new("listdiff")
                .with_attr("vms", &pool.vm_names.len())
                .with_duration_ns(list_elapsed.as_nanos()),
        );
        for unit in &pool.units {
            pspan.push(
                mc_obs::span!("unit", module = unit.module, priority = unit.priority)
                    .with_duration_ns(unit.duration().as_nanos()),
            );
        }
        root.push(pspan);
    }
    root
}

/// Records one reference-vs-peers check ([`crate::pool::ModChecker::check_one`])
/// into a shared registry. Same metric names as the pool path where the
/// semantics coincide, so Figure 7/8 sweeps and pool monitoring read one
/// taxonomy.
#[allow(clippy::cast_precision_loss)]
pub fn record_module_report(report: &ModuleCheckReport, reg: &mut MetricsRegistry) {
    reg.counter_add("scan_rounds_total", 1);
    match report.quorum {
        QuorumStatus::Full => {}
        QuorumStatus::Degraded => reg.counter_add("scan_quorum_degraded_total", 1),
        QuorumStatus::Lost => reg.counter_add("scan_quorum_lost_total", 1),
    }
    reg.counter_add(
        if report.clean {
            "scan_verdict_clean_total"
        } else {
            "scan_verdict_suspect_total"
        },
        1,
    );
    reg.counter_add("hv_fault_injections_total", report.fault_injections);
    report.vmi.record_into(reg);

    reg.gauge_set("scan_pool_vms", report.per_vm_times.len() as f64);
    reg.gauge_set("scan_scanned_vms", report.scanned as f64);
    reg.gauge_set("scan_searcher_ms", report.times.searcher.as_millis_f64());
    reg.gauge_set("scan_parser_ms", report.times.parser.as_millis_f64());
    reg.gauge_set("scan_checker_ms", report.times.checker.as_millis_f64());
    reg.gauge_set("scan_total_ms", report.times.total().as_millis_f64());
    for (_, t) in &report.per_vm_times {
        reg.observe("scan_vm_capture_ms", t.total().as_millis_f64());
    }
}

/// Derives the metrics snapshot and the serve span tree from one daemon
/// run.
pub fn observe_serve(report: &ServeReport) -> ScanObservation {
    let mut registry = MetricsRegistry::new();
    record_serve_report(report, &mut registry);
    ScanObservation {
        registry,
        trace: serve_span(report),
    }
}

/// Records one daemon run into a shared registry under the `serve_*`
/// taxonomy: every query lands in exactly one counter (answered by
/// confidence tier, or rejected by typed reason — the no-silent-drop
/// invariant rendered as arithmetic), plus last-run gauges and the
/// answer-latency / staleness histograms.
#[allow(clippy::cast_precision_loss)]
pub fn record_serve_report(report: &ServeReport, reg: &mut MetricsRegistry) {
    reg.counter_add("serve_queries_total", report.queries.len() as u64);
    for (tier, name) in [
        (Confidence::Fresh, "serve_answered_fresh_total"),
        (Confidence::Stale, "serve_answered_stale_total"),
        (Confidence::Unscannable, "serve_answered_unscannable_total"),
    ] {
        reg.counter_add(name, report.answered_at(tier) as u64);
    }
    for (why, name) in [
        (Rejected::QuotaExceeded, "serve_rejected_quota_total"),
        (Rejected::QueueFull, "serve_rejected_queue_full_total"),
        (Rejected::DeadlineExpired, "serve_rejected_expired_total"),
        (Rejected::UnknownTarget, "serve_rejected_unknown_total"),
    ] {
        reg.counter_add(name, report.rejected_for(why) as u64);
    }
    reg.counter_add("serve_rescans_total", report.rescans as u64);
    reg.counter_add("serve_rescan_failures_total", report.rescan_failures as u64);
    reg.counter_add("serve_sweeps_total", report.sweeps_committed as u64);
    reg.counter_add(
        "serve_quarantined_vms_total",
        report.quarantined_vms.len() as u64,
    );

    let ms = |d: Option<SimDuration>| d.map_or(0.0, SimDuration::as_millis_f64);
    reg.gauge_set("serve_p50_latency_ms", ms(report.latency_percentile(50.0)));
    reg.gauge_set("serve_p99_latency_ms", ms(report.latency_percentile(99.0)));
    reg.gauge_set(
        "serve_p99_staleness_ms",
        ms(report.staleness_percentile(99.0)),
    );
    reg.gauge_set("serve_max_queue_depth", report.max_queue_depth as f64);
    reg.gauge_set("serve_qps", report.answered_per_sec());
    for q in &report.queries {
        if let Disposition::Answered {
            staleness, verdict, ..
        } = &q.disposition
        {
            reg.observe("serve_answer_latency_ms", q.latency.as_millis_f64());
            if verdict.is_some() {
                reg.observe("serve_staleness_ms", staleness.as_millis_f64());
            }
        }
    }
}

/// Builds the two-plane span tree for one daemon run.
///
/// Invariants (tested): the root's duration is the run's total busy time
/// and the `refresh` + `service` children sum to it exactly — the same
/// no-lost-nanoseconds discipline as [`pool_span`], applied to the event
/// loop's two planes instead of a scan pipeline. The idle gap up to the
/// run horizon is an attribute, not span time: idleness is not work.
pub fn serve_span(report: &ServeReport) -> TraceSpan {
    let busy = report.service_busy + report.refresh_busy;
    let mut root = mc_obs::span!(
        "serve",
        queries = report.queries.len(),
        horizon_ms = report.horizon.as_millis_f64()
    )
    .with_duration_ns(busy.as_nanos());
    root.push(
        TraceSpan::new("refresh")
            .with_attr("sweeps", &report.sweeps_committed)
            .with_duration_ns(report.refresh_busy.as_nanos()),
    );
    root.push(
        TraceSpan::new("service")
            .with_attr("answered", &report.answered())
            .with_attr("rescans", &report.rescans)
            .with_duration_ns(report.service_busy.as_nanos()),
    );
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::ModChecker;
    use mc_guest::build_cloud_with_modules;
    use mc_hypervisor::{AddressWidth, Hypervisor, VmId};
    use mc_pe::corpus::ModuleBlueprint;

    fn cloud(n: usize) -> (Hypervisor, Vec<VmId>) {
        let mut hv = Hypervisor::new();
        let bps = vec![ModuleBlueprint::new("hal.dll", AddressWidth::W32, 8 * 1024)];
        let guests = build_cloud_with_modules(&mut hv, n, AddressWidth::W32, &bps).unwrap();
        let ids = guests.iter().map(|g| g.vm).collect();
        (hv, ids)
    }

    #[test]
    fn span_tree_accounts_for_every_simulated_nanosecond() {
        let (hv, ids) = cloud(5);
        let report = ModChecker::new().check_pool(&hv, &ids, "hal.dll").unwrap();
        let obs = observe_scan(&report);
        assert_eq!(obs.trace.duration_ns, report.times.total().as_nanos());
        assert_eq!(
            obs.trace.children_total_ns(),
            obs.trace.duration_ns,
            "capture spans + vote must cover the root exactly"
        );
        assert_eq!(obs.trace.self_time_ns(), 0);
        // One capture per VM, each internally consistent, plus the vote.
        assert_eq!(obs.trace.children.len(), 6);
        for c in obs.trace.children.iter().filter(|c| c.name == "capture") {
            assert_eq!(c.children_total_ns(), c.duration_ns, "{:?}", c.attrs);
        }
    }

    #[test]
    fn registry_snapshot_reflects_the_verdicts() {
        let (hv, ids) = cloud(4);
        let report = ModChecker::new().check_pool(&hv, &ids, "hal.dll").unwrap();
        let obs = observe_scan(&report);
        let reg = &obs.registry;
        assert_eq!(reg.counter("scan_rounds_total"), 1);
        assert_eq!(reg.counter("scan_verdict_clean_total"), 4);
        assert_eq!(reg.counter("scan_verdict_suspect_total"), 0);
        assert_eq!(reg.counter("vmi_reads_total"), report.vmi.reads);
        assert_eq!(reg.gauge("scan_pool_vms"), Some(4.0));
        assert_eq!(
            reg.gauge("scan_total_ms"),
            Some(report.times.total().as_millis_f64())
        );
        let h = reg.histogram("scan_vm_capture_ms").unwrap();
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn static_findings_surface_as_a_zero_cost_span_and_counters() {
        let mut hv = Hypervisor::new();
        let bps = vec![ModuleBlueprint::new("hal.dll", AddressWidth::W32, 8 * 1024)];
        let guests = build_cloud_with_modules(&mut hv, 4, AddressWidth::W32, &bps).unwrap();
        let ids: Vec<VmId> = guests.iter().map(|g| g.vm).collect();
        guests[1]
            .patch_module(&mut hv, "hal.dll", 0x1000, &[0xE9, 0x10, 0x00, 0x00, 0x00])
            .unwrap();
        let report = ModChecker::with_config(crate::pool::CheckConfig {
            static_prepass: true,
            ..crate::pool::CheckConfig::default()
        })
        .check_pool(&hv, &ids, "hal.dll")
        .unwrap();
        assert!(!report.static_findings.is_empty());
        let obs = observe_scan(&report);
        // The pre-pass span is evidence, not time: the nanosecond audit
        // still balances exactly.
        assert_eq!(obs.trace.children_total_ns(), obs.trace.duration_ns);
        let span = obs
            .trace
            .children
            .iter()
            .find(|c| c.name == "static_analysis")
            .expect("findings must surface in the trace");
        assert_eq!(span.duration_ns, 0);
        assert_eq!(
            obs.registry.counter("analysis_flagged_vms_total"),
            report.static_findings.len() as u64
        );
        assert!(obs.registry.counter("analysis_findings_total") > 0);
    }

    #[test]
    fn fleet_span_tree_sums_exactly_at_every_level() {
        use crate::sched::{Fleet, FleetConfig, FleetScheduler, PoolSpec};
        let mut hv = Hypervisor::new();
        let mut pools = Vec::new();
        for p in 0..2 {
            let bps = [
                ModuleBlueprint::new(&format!("fp{p}a.sys"), AddressWidth::W32, 8 * 1024),
                ModuleBlueprint::new(&format!("fp{p}b.sys"), AddressWidth::W32, 4 * 1024),
            ];
            let mut vms = Vec::new();
            for i in 0..3 {
                let vm = hv
                    .create_vm(&format!("f{p}dom{i}"), AddressWidth::W32)
                    .unwrap();
                let files: Vec<(String, mc_pe::PeFile)> = bps
                    .iter()
                    .map(|b| (b.name.clone(), b.build().unwrap()))
                    .collect();
                mc_guest::GuestOs::install_with_modules(
                    &mut hv,
                    vm,
                    &files,
                    (p * 10 + i + 1) as u64,
                )
                .unwrap();
                vms.push(vm);
            }
            pools.push(PoolSpec {
                name: format!("pool{p}"),
                vms,
            });
        }
        let fleet = Fleet::from_pools(pools);
        let sched = FleetScheduler::new(FleetConfig::default());
        let report = sched.sweep(&hv, &fleet);
        let obs = observe_fleet(&report);

        let root = &obs.trace;
        assert_eq!(root.name, "fleet");
        assert_eq!(
            root.duration_ns,
            report.simulated_wall_sequential().as_nanos()
        );
        assert_eq!(root.children_total_ns(), root.duration_ns);
        assert_eq!(root.self_time_ns(), 0, "no unattributed fleet time");
        assert_eq!(root.children.len(), 2);
        for (pspan, pool) in root.children.iter().zip(&report.pools) {
            assert_eq!(pspan.name, "pool");
            assert_eq!(pspan.duration_ns, pool.duration().as_nanos());
            assert_eq!(pspan.children_total_ns(), pspan.duration_ns);
            // listdiff + one span per unit.
            assert_eq!(pspan.children.len(), 1 + pool.units.len());
            assert_eq!(pspan.children[0].name, "listdiff");
        }

        let reg = &obs.registry;
        assert_eq!(reg.counter("fleet_sweeps_total"), 1);
        assert_eq!(reg.counter("fleet_units_total"), 4);
        assert_eq!(reg.counter("fleet_units_clean_total"), 4);
        assert_eq!(reg.counter("fleet_units_failed_total"), 0);
        assert_eq!(reg.gauge("fleet_pools"), Some(2.0));
        assert_eq!(reg.gauge("fleet_vms"), Some(6.0));
        assert_eq!(
            reg.gauge("fleet_wall_ms"),
            Some(report.simulated_wall_sequential().as_millis_f64())
        );
        assert_eq!(reg.histogram("fleet_unit_ms").unwrap().count(), 4);
        // The per-unit pool reports fold into the same registry.
        assert_eq!(reg.counter("scan_rounds_total"), 4);
    }

    #[test]
    fn serve_observation_accounts_for_every_query_and_nanosecond() {
        use crate::sched::{Fleet, PoolSpec};
        use crate::serve::{AttestQuery, AttestServer, ServeConfig};

        let mut hv = Hypervisor::new();
        let bps = vec![ModuleBlueprint::new("hal.dll", AddressWidth::W32, 8 * 1024)];
        let guests = build_cloud_with_modules(&mut hv, 3, AddressWidth::W32, &bps).unwrap();
        let fleet = Fleet::from_pools(vec![PoolSpec {
            name: "pool0".to_string(),
            vms: guests.iter().map(|g| g.vm).collect(),
        }]);
        let queries: Vec<AttestQuery> = (0..6)
            .map(|i| AttestQuery {
                at: SimDuration::from_millis(30 + 5 * i),
                tenant: format!("tenant{}", i % 2),
                pool: if i == 5 { "nopool" } else { "pool0" }.to_string(),
                module: "hal.dll".to_string(),
                deadline: SimDuration::from_millis(200),
            })
            .collect();
        let report = AttestServer::new(ServeConfig::default()).run(&hv, &fleet, &queries);
        assert!(report.answered() > 0 && report.rejected() > 0);

        let obs = observe_serve(&report);
        let reg = &obs.registry;
        // Conservation: answered tiers + typed rejections == queries.
        let answered = reg.counter("serve_answered_fresh_total")
            + reg.counter("serve_answered_stale_total")
            + reg.counter("serve_answered_unscannable_total");
        let rejected = reg.counter("serve_rejected_quota_total")
            + reg.counter("serve_rejected_queue_full_total")
            + reg.counter("serve_rejected_expired_total")
            + reg.counter("serve_rejected_unknown_total");
        assert_eq!(answered + rejected, reg.counter("serve_queries_total"));
        assert_eq!(answered, report.answered() as u64);
        assert_eq!(
            reg.histogram("serve_answer_latency_ms").unwrap().count(),
            report.answered() as u64
        );
        assert!(reg.gauge("serve_qps").unwrap() > 0.0);

        let root = &obs.trace;
        assert_eq!(root.name, "serve");
        assert_eq!(
            root.duration_ns,
            (report.service_busy + report.refresh_busy).as_nanos()
        );
        assert_eq!(root.children_total_ns(), root.duration_ns);
        assert_eq!(root.self_time_ns(), 0, "refresh + service cover the run");
        assert_eq!(root.children.len(), 2);
    }

    #[test]
    fn module_report_records_under_the_same_taxonomy() {
        let (hv, ids) = cloud(4);
        let report = ModChecker::new()
            .check_one(&hv, ids[0], &ids[1..], "hal.dll")
            .unwrap();
        let mut reg = MetricsRegistry::new();
        record_module_report(&report, &mut reg);
        assert_eq!(reg.counter("scan_verdict_clean_total"), 1);
        assert_eq!(reg.counter("vmi_reads_total"), report.vmi.reads);
        assert!(reg.gauge("scan_total_ms").unwrap() > 0.0);
    }
}
