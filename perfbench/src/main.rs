//! Two-currency benchmark for the ModChecker reproduction.
//!
//! Usage: `perfbench --workload <scan_paper|monitor_push|serve_fleet>
//! --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]`.
//!
//! With `--trace 0` the run times every op with tracing off and prints
//! the end-to-end metrics; with `--trace 1` it spends half the budget on
//! an untraced run (for the overhead figure) and half on a traced run
//! that rebuilds each op from the layers' public calls, then prints the
//! per-layer metrics and writes the spans as JSON lines under
//! `--out-dir`. Every verdict is checked against the workload's ground
//! truth; the last stdout line is the JSON result, and any verdict error
//! makes the process exit 1. End-to-end host times are scaled to a
//! reference host speed measured by a probe between op cycles
//! (`common::probe_speed`). `BENCHMARK.json` lists the metrics; `run.py`
//! checks every result against it. See `NOTES.md` for the definitions.

mod common;
mod monitor_push;
mod probe;
mod scan_paper;
mod serve_fleet;
mod trace;

use common::{result_line, Outcome, RunCfg};

/// Completes a traced run: writes the spans, folds the untraced phase's
/// op accounting in and adds the oracle counters.
pub fn finish_trace(
    cfg: &RunCfg,
    workload: &str,
    tracer: &trace::Tracer,
    untraced: Outcome,
    mut traced: Outcome,
) -> Outcome {
    let path = cfg
        .out_dir
        .join(format!("trace-{workload}-seed{}.jsonl", cfg.seed));
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    } else {
        eprintln!("perfbench: spans written to {}", path.display());
    }
    let p90 = untraced.host_ms_p90;
    traced.metrics.put("op_host_ms_p90", p90, "ms");
    traced.attempted += untraced.attempted;
    traced.failed += untraced.failed;
    traced.verdicts_checked += untraced.verdicts_checked;
    traced.verdict_errors += untraced.verdict_errors;
    traced.notes.extend(untraced.notes);
    #[allow(clippy::cast_precision_loss)]
    {
        traced.metrics.put(
            "oracle.verdict_errors",
            traced.verdict_errors as f64,
            "count",
        );
        traced.metrics.put(
            "oracle.failed_share",
            traced.failed as f64 / traced.attempted.max(1) as f64,
            "share",
        );
    }
    traced
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <scan_paper|monitor_push|serve_fleet> --seed <n> \
         --seconds <s> --trace <0|1> [--out-dir <dir>]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |key: &str| {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let Some(workload) = value("--workload") else {
        usage()
    };
    let seed: u64 = value("--seed").and_then(|s| s.parse().ok()).unwrap_or(1);
    let seconds: f64 = value("--seconds")
        .and_then(|s| s.parse().ok())
        .unwrap_or(10.0);
    let trace = value("--trace").as_deref() == Some("1");
    let cfg = RunCfg {
        seed,
        seconds,
        out_dir: value("--out-dir")
            .unwrap_or_else(|| "perfbench/out".to_string())
            .into(),
    };

    let mut outcome = match (workload.as_str(), trace) {
        ("scan_paper", false) => scan_paper::timed(&cfg, cfg.budget()),
        ("scan_paper", true) => scan_paper::traced(&cfg),
        ("monitor_push", false) => monitor_push::timed(&cfg, cfg.budget()),
        ("monitor_push", true) => monitor_push::traced(&cfg),
        ("serve_fleet", false) => serve_fleet::timed(&cfg, cfg.budget()),
        ("serve_fleet", true) => serve_fleet::traced(&cfg),
        _ => usage(),
    };
    let speed = common::speed_factor();
    if trace {
        outcome.metrics.put("host.speed_factor", speed, "ratio");
    } else {
        let measured = outcome.scale_to_reference_speed(speed);
        outcome.notes.push(format!(
            "host times at reference speed (factor {speed:.4}); as measured: {measured}"
        ));
    }
    for note in &outcome.notes {
        eprintln!("perfbench: {note}");
    }
    eprintln!(
        "perfbench: {workload} seed {seed}: {} verdicts checked, {} verdict errors, {}/{} ops failed",
        outcome.verdicts_checked, outcome.verdict_errors, outcome.failed, outcome.attempted
    );
    println!("{}", result_line(&outcome));
    if !outcome.correct() {
        std::process::exit(1);
    }
}
