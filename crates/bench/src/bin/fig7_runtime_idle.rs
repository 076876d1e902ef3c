//! FIG-7 — "Runtime performance of ModChecker (and its components) on
//! different number of VMs when they are mostly idle."
//!
//! Regenerates the figure's series: total runtime plus the Module-Searcher
//! / Module-Parser / Integrity-Checker split, checking `http.sys` (the
//! module the paper uses) from dom1 against N−1 peers for N = 2..15.
//!
//! Shape claims verified: all four series grow linearly in N (R² ≥ 0.99)
//! and Module-Searcher dominates at every point.
//!
//! Pass `--parallel` to additionally print the ABL-1 series (idealized
//! parallel wall-clock for 2/4/8 Dom0 workers), and `--cache` for the
//! ABL-5 comparison (the capture fast path — translate cache plus
//! run-batched foreign maps — against the paper's page-by-page capture).

use mc_bench::{linear_fit, print_csv};
use modchecker::{CheckConfig, ModChecker};
use modchecker_repro::testbed::Testbed;

struct Row {
    n: usize,
    searcher_ms: f64,
    parser_ms: f64,
    checker_ms: f64,
    total_ms: f64,
    par2_ms: f64,
    par4_ms: f64,
    par8_ms: f64,
}

impl std::fmt::Display for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3}",
            self.n,
            self.searcher_ms,
            self.parser_ms,
            self.checker_ms,
            self.total_ms,
            self.par2_ms,
            self.par4_ms,
            self.par8_ms
        )
    }
}

fn main() {
    let parallel = std::env::args().any(|a| a == "--parallel");
    let module = "http.sys";
    let bed = Testbed::cloud(15);
    // The paper's prototype copies module pages one by one; the fast
    // capture path would shrink the searcher series the figure is about.
    let paper = CheckConfig {
        fast_capture: false,
        ..CheckConfig::default()
    };
    let checker = ModChecker::with_config(paper);

    let mut rows = Vec::new();
    for n in 2..=15usize {
        let ids = &bed.vm_ids[..n];
        let report = checker
            .check_one(&bed.hv, ids[0], &ids[1..], module)
            .unwrap_or_else(|e| panic!("check at N={n}: {e}"));
        rows.push(Row {
            n,
            searcher_ms: report.times.searcher.as_millis_f64(),
            parser_ms: report.times.parser.as_millis_f64(),
            checker_ms: report.times.checker.as_millis_f64(),
            total_ms: report.times.total().as_millis_f64(),
            par2_ms: report.simulated_wall_parallel(2).as_millis_f64(),
            par4_ms: report.simulated_wall_parallel(4).as_millis_f64(),
            par8_ms: report.simulated_wall_parallel(8).as_millis_f64(),
        });
    }

    print_csv(
        "fig7_runtime_idle",
        "vms,searcher_ms,parser_ms,checker_ms,total_ms,parallel2_ms,parallel4_ms,parallel8_ms",
        &rows,
    );

    // Shape verification.
    println!("\nFIG-7 shape checks (paper: linear growth, searcher dominates):");
    for (name, series) in [
        ("total", rows.iter().map(|r| r.total_ms).collect::<Vec<_>>()),
        ("searcher", rows.iter().map(|r| r.searcher_ms).collect()),
        ("parser", rows.iter().map(|r| r.parser_ms).collect()),
        ("checker", rows.iter().map(|r| r.checker_ms).collect()),
    ] {
        let pts: Vec<(f64, f64)> = rows.iter().map(|r| r.n as f64).zip(series).collect();
        let (slope, _, r2) = linear_fit(&pts);
        println!("  {name:<9} slope {slope:>8.3} ms/VM, R² = {r2:.5}");
        assert!(r2 > 0.99, "{name} series is not linear (R² {r2})");
    }
    for r in &rows {
        assert!(
            r.searcher_ms > r.parser_ms && r.searcher_ms > r.checker_ms,
            "searcher must dominate at N={}",
            r.n
        );
    }
    println!("  searcher dominates at every N ✓");

    if parallel {
        let last = rows.last().expect("rows nonempty");
        println!("\nABL-1 parallel scan at N=15:");
        println!(
            "  sequential {:.1} ms → x2 {:.1} ms, x4 {:.1} ms, x8 {:.1} ms",
            last.total_ms, last.par2_ms, last.par4_ms, last.par8_ms
        );
        assert!(last.par8_ms < last.total_ms / 3.0);
    }

    if std::env::args().any(|a| a == "--cache") {
        // ABL-5: caching introspection work. The fast path caches page
        // translations and maps each first-touched physical run once; the
        // paper's prototype pays a walk and a foreign map per page access.
        let fast_checker = ModChecker::with_config(CheckConfig {
            fast_capture: true,
            ..paper
        });
        let n = 15;
        let ids = &bed.vm_ids[..n];
        let paper_run = checker
            .check_one(&bed.hv, ids[0], &ids[1..], module)
            .expect("paper capture");
        let fast_run = fast_checker
            .check_one(&bed.hv, ids[0], &ids[1..], module)
            .expect("fast capture");
        println!("\nABL-5 capture caching at N=15:");
        println!(
            "  searcher paper path {} → fast path {}",
            paper_run.times.searcher, fast_run.times.searcher
        );
        assert!(fast_run.times.searcher < paper_run.times.searcher);
        let votes = |r: &modchecker::ModuleCheckReport| -> Vec<bool> {
            r.outcomes
                .iter()
                .map(modchecker::PairOutcome::matches)
                .collect()
        };
        assert_eq!(fast_run.clean, paper_run.clean, "verdict must not move");
        assert_eq!(votes(&fast_run), votes(&paper_run), "votes must not move");
    }
    println!("\nFIG-7 reproduced: linear runtime, Module-Searcher dominant.");
}
