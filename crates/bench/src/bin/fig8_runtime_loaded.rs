//! FIG-8 — "Runtime performance of ModChecker (and its components) on
//! different number of VMs when they are exhaustively using their
//! resources."
//!
//! Same sweep as FIG-7 but every guest in the pool runs the
//! HeavyLoad-equivalent stressor. The paper's observation: runtime grows
//! roughly linearly until the number of heavily loaded VMs exceeds the
//! host's virtual cores (8 on the paper's hyper-threaded quad-core i7),
//! then grows *nonlinearly*.
//!
//! Shape claims verified: the loaded curve has a knee; the knee falls at
//! N within [cores−1, cores+3]; below the knee the loaded/idle ratio is
//! modest, above it it blows up.
//!
//! `--fault-rate <0..0.3> [--fault-seed <SEED>]` repeats the loaded sweep
//! with deterministic transient read faults injected into every VM. The
//! chaos claim: retries add a bounded, roughly constant factor — the
//! curve keeps its linear-then-knee shape and the faulted/fault-free
//! ratio stays small at every N.

use mc_bench::{knee_position, print_csv};
use mc_hypervisor::FaultPlan;
use mc_loadgen::{HeavyLoad, LoadProfile};
use mc_obs::MetricsRegistry;
use modchecker::{record_module_report, ModChecker};
use modchecker_repro::testbed::Testbed;

struct Row {
    n: usize,
    searcher_ms: f64,
    parser_ms: f64,
    checker_ms: f64,
    total_ms: f64,
    idle_total_ms: f64,
    faulted_total_ms: Option<f64>,
}

impl std::fmt::Display for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{},{:.3},{:.3},{:.3},{:.3},{:.3}",
            self.n,
            self.searcher_ms,
            self.parser_ms,
            self.checker_ms,
            self.total_ms,
            self.idle_total_ms
        )?;
        if let Some(ft) = self.faulted_total_ms {
            write!(f, ",{ft:.3}")?;
        }
        Ok(())
    }
}

/// `--key value` as f64, or `default`.
fn arg_f64(key: &str, default: f64) -> f64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{key} expects a number, got {v:?}"))
        })
}

fn main() {
    let module = "http.sys";
    let fault_rate = arg_f64("--fault-rate", 0.0);
    let fault_seed = arg_f64("--fault-seed", 42.0) as u64;
    assert!(
        (0.0..0.3).contains(&fault_rate),
        "--fault-rate must be in [0, 0.3)"
    );
    let mut bed = Testbed::cloud(15);
    let cores = bed.hv.host.virtual_cores as f64;
    let checker = ModChecker::new();

    // Every scan in the sweep is recorded into one shared registry; the
    // row timings are read back from the last-scan gauges, and the
    // cumulative counters summarize the whole figure's introspection work.
    let mut metrics = MetricsRegistry::new();
    let mut rows = Vec::new();
    for n in 2..=15usize {
        let ids: Vec<_> = bed.vm_ids[..n].to_vec();

        let idle = checker
            .check_one(&bed.hv, ids[0], &ids[1..], module)
            .expect("idle check");
        record_module_report(&idle, &mut metrics);
        let idle_total_ms = metrics
            .gauge("scan_total_ms")
            .expect("idle scan recorded a total gauge");

        let mut load = HeavyLoad::new();
        load.start(&mut bed.hv, &ids, LoadProfile::heavy())
            .expect("start load");
        let loaded = checker
            .check_one(&bed.hv, ids[0], &ids[1..], module)
            .expect("loaded check");
        record_module_report(&loaded, &mut metrics);
        let row = Row {
            n,
            searcher_ms: metrics
                .gauge("scan_searcher_ms")
                .expect("loaded scan recorded a searcher gauge"),
            parser_ms: metrics
                .gauge("scan_parser_ms")
                .expect("loaded scan recorded a parser gauge"),
            checker_ms: metrics
                .gauge("scan_checker_ms")
                .expect("loaded scan recorded a checker gauge"),
            total_ms: metrics
                .gauge("scan_total_ms")
                .expect("loaded scan recorded a total gauge"),
            idle_total_ms,
            faulted_total_ms: None,
        };
        let faulted_total_ms = if fault_rate > 0.0 {
            bed.hv
                .inject_fault_plan(FaultPlan::transient(fault_seed, fault_rate));
            let faulted = checker
                .check_one(&bed.hv, ids[0], &ids[1..], module)
                .expect("faulted check");
            for &id in &bed.vm_ids {
                bed.hv.set_fault_plan(id, None).expect("clear fault plan");
            }
            record_module_report(&faulted, &mut metrics);
            Some(
                metrics
                    .gauge("scan_total_ms")
                    .expect("faulted scan recorded a total gauge"),
            )
        } else {
            None
        };
        load.stop(&mut bed.hv).expect("stop load");

        rows.push(Row {
            faulted_total_ms,
            ..row
        });
    }

    let header = if fault_rate > 0.0 {
        "vms,searcher_ms,parser_ms,checker_ms,total_ms,idle_total_ms,faulted_total_ms"
    } else {
        "vms,searcher_ms,parser_ms,checker_ms,total_ms,idle_total_ms"
    };
    print_csv("fig8_runtime_loaded", header, &rows);

    // Shape verification — on the faulted curve when chaos is on: the
    // fault layer must not change the figure's story.
    let pts: Vec<(f64, f64)> = rows
        .iter()
        .map(|r| (r.n as f64, r.faulted_total_ms.unwrap_or(r.total_ms)))
        .collect();
    let knee = knee_position(&pts, 3.0).expect("loaded curve must have a knee");
    println!("\nFIG-8 shape checks (paper: nonlinear growth past the core count):");
    println!("  host virtual cores: {cores}");
    println!("  detected knee at N = {knee}");
    assert!(
        (cores - 1.0..=cores + 3.0).contains(&knee),
        "knee {knee} not near the core count {cores}"
    );

    let below = &rows[3]; // N=5, well under the cores
    let above = rows.last().expect("rows nonempty"); // N=15
    let ratio_below = below.total_ms / below.idle_total_ms;
    let ratio_above = above.total_ms / above.idle_total_ms;
    println!("  loaded/idle ratio at N=5:  {ratio_below:.2}x");
    println!("  loaded/idle ratio at N=15: {ratio_above:.2}x");
    assert!(ratio_below < 2.0, "pre-knee slowdown should be modest");
    assert!(ratio_above > 4.0, "post-knee slowdown should be severe");

    if fault_rate > 0.0 {
        // Chaos costs a bounded constant factor, not a new growth regime:
        // with a fault plan attached every bulk page read is double-read
        // (torn-page detection), which at most doubles the searcher, and
        // retries/backoff add a term proportional to the fault rate.
        let bound = 2.0 + 12.0 * fault_rate;
        let worst = rows
            .iter()
            .map(|r| r.faulted_total_ms.expect("chaos rows") / r.total_ms)
            .fold(0.0f64, f64::max);
        println!(
            "  worst faulted/fault-free ratio: {worst:.3}x (bound {bound:.3}x at rate {fault_rate})"
        );
        assert!(
            worst < bound,
            "chaos overhead {worst:.3}x exceeds the bounded factor {bound:.3}x"
        );
    }

    // Cross-check the cumulative counters against what the sweep ran:
    // 14 pool sizes, two scans each (idle + loaded), plus one faulted
    // scan per size when chaos is on — all clean verdicts.
    let scans_per_n: u64 = if fault_rate > 0.0 { 3 } else { 2 };
    assert_eq!(metrics.counter("scan_rounds_total"), 14 * scans_per_n);
    assert_eq!(metrics.counter("scan_verdict_suspect_total"), 0);
    println!(
        "\n  registry totals: {} scans, {} VMI reads, {} pages mapped, {} retries, {} fault injections",
        metrics.counter("scan_rounds_total"),
        metrics.counter("vmi_reads_total"),
        metrics.counter("vmi_pages_mapped_total"),
        metrics.counter("vmi_retries_total"),
        metrics.counter("hv_fault_injections_total"),
    );

    println!("\nFIG-8 reproduced: nonlinear growth once loaded VMs exceed the virtual cores.");
}
