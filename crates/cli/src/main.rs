//! `modchecker` — command-line driver for the ModChecker reproduction.
//!
//! ```text
//! modchecker check --vms 15 --module http.sys
//! modchecker check --vms 15 --module hal.dll --infect inline-hook@3 --json
//! modchecker list-modules --vms 2
//! modchecker sweep [--loaded]
//! modchecker monitor --vms 6 --rounds 3
//! modchecker techniques
//! ```
//!
//! Every invocation builds a fresh simulated cloud (there is no persistent
//! Xen host to attach to); determinism makes runs reproducible.

use std::process::ExitCode;

use mc_attacks::Technique;
use mc_hypervisor::{AddressWidth, FaultPlan, SimDuration};
use mc_loadgen::{HeavyLoad, LoadProfile};
use mc_vmi::VmiSession;
use modchecker::{
    ContinuousMonitor, ModChecker, ModuleSearcher, MonitorConfig, MonitorEvent, RetryPolicy,
    ScanJitter,
};
use modchecker_repro::testbed::Testbed;

mod args;

use args::Args;

fn main() -> ExitCode {
    let mut args = Args::parse(std::env::args().skip(1));
    let command = match args.positional.first().map(String::as_str) {
        Some(c) => c.to_string(),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // `fleet-check` reports integrity through its exit code (see USAGE);
    // every other command is plain success/failure.
    let result = match command.as_str() {
        "check" => cmd_check(&mut args).map(|()| ExitCode::SUCCESS),
        "analyze" => cmd_analyze(&mut args).map(|()| ExitCode::SUCCESS),
        "list-modules" => cmd_list_modules(&mut args).map(|()| ExitCode::SUCCESS),
        "listdiff" => cmd_listdiff(&mut args).map(|()| ExitCode::SUCCESS),
        "sweep" => cmd_sweep(&mut args).map(|()| ExitCode::SUCCESS),
        "sweep-all" => cmd_sweep_all(&mut args).map(|()| ExitCode::SUCCESS),
        "fleet-check" => cmd_fleet_check(&mut args),
        "serve" => cmd_serve(&mut args).map(|()| ExitCode::SUCCESS),
        "monitor" => cmd_monitor(&mut args).map(|()| ExitCode::SUCCESS),
        "validate-metrics" => cmd_validate_metrics(&mut args).map(|()| ExitCode::SUCCESS),
        "techniques" => cmd_techniques(&args).map(|()| ExitCode::SUCCESS),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
modchecker — cross-VM kernel module integrity checking (ICPP 2012 reproduction)

USAGE:
  modchecker check --vms <N> --module <NAME> [--width64] [--static]
                   [--infect <technique>@<vm-index>] [--sha256] [--json]
                   [--compare pairwise|canonical] [--no-fast-capture]
                   [--retries <R>] [--deadline-ms <MS>] [--min-quorum <Q>]
                   [--fault-seed <SEED>] [--fault-rate <0..1>]
                   [--metrics-out <PATH>] [--trace-out <PATH>]
  modchecker analyze [--vms <N>] [--module <NAME>] [--width64] [--json]
                     [--infect <technique>@<vm-index>] [--hide <module>@<vm-index>]
                     [--metrics-out <PATH>]
                                         single-VM static lints (CFG, L1–L9),
                                         no reference needed
  modchecker list-modules [--vms <N>] [--width64]
  modchecker listdiff --vms <N> [--hide <module>@<vm-index>]
  modchecker sweep [--loaded]            runtime vs pool size (Fig. 7/8 preview)
  modchecker sweep-all [--vms <N>]       list-diff + content-check every module
  modchecker fleet-check [--pools <P>] [--vms-per-pool <M>] [--modules-per-pool <K>]
                         [--seed <S>] [--shards <N>]
                         [--discover] [--rounds <R>] [--compare pairwise|canonical]
                         [--no-fast-capture] [--retries <R>] [--deadline-ms <MS>]
                         [--min-quorum <Q>] [--fault-seed <SEED>]
                         [--fault-rate <0..1>] [--json] [--metrics-out <PATH>]
                         [--trace-out <PATH>] [--static-prepass] [--cross-view]
                                         sharded multi-pool, multi-module sweep;
                                         --seed builds a randomized infected fleet,
                                         otherwise a clean uniform one
  modchecker serve [--pools <P>] [--vms-per-pool <M>] [--modules-per-pool <K>]
                   [--seed <S>] [--queries <N>] [--load-seed <S>] [--tenants <T>]
                   [--mean-gap-us <US>] [--burst-prob <0..1>] [--unknown-rate <0..1>]
                   [--deadline-min-ms <MS>] [--deadline-max-ms <MS>]
                   [--queue-capacity <Q>] [--quota-rate <QPS>] [--quota-burst <B>]
                   [--refresh-ms <MS>] [--freshness-ms <MS>] [--events]
                   [--shards <N>] [--compare pairwise|canonical]
                   [--no-fast-capture] [--retries <R>] [--deadline-ms <MS>]
                   [--min-quorum <Q>] [--fault-seed <SEED>] [--fault-rate <0..1>]
                   [--json] [--metrics-out <PATH>] [--trace-out <PATH>]
                                         attestation daemon over a seeded query
                                         stream: admission quotas, bounded queue,
                                         degraded answers under faults
  modchecker monitor [--vms <N>] [--rounds <R>] [--events] [--fault-seed <SEED>]
                     [--fault-rate <0..1>] [--retries <R>] [--deadline-ms <MS>]
                     [--min-quorum <Q>]
                     [--compare pairwise|canonical] [--no-fast-capture]
                     [--scan-jitter <MAX_NS>] [--jitter-seed <SEED>]
                     [--metrics-out <PATH>]
  modchecker validate-metrics --file <PATH> --schema <PATH>
                                         validate a metrics JSON export
  modchecker techniques                  list infection techniques

Observability: --metrics-out writes the scan's metric snapshot (counters,
gauges, histograms) as JSON; --trace-out writes the simulated-time span
tree (capture → page_map/parse/hash per VM, plus the pool-level vote) as
JSONL, one span per line. Both derive from the deterministic report, so the
same seed yields byte-identical exports however many cores the host has.

Comparison: --compare canonical normalizes each capture once against its own
load base via the PE .reloc table and majority-votes by digest bucket — O(t)
instead of the O(t²) pairwise matrix; reloc-less modules fall back to
pairwise automatically.

Capture: the scatter-gather fast path (per-session translate cache, one
batched copy per physical run, page-granular cache refreshes) is on by default;
--no-fast-capture restores the paper's page-by-page loop for ablation —
verdicts are byte-identical either way.

Chaos: --fault-seed/--fault-rate inject deterministic transient read faults
into every VM (same seed ⇒ same faults ⇒ same report); --retries bounds the
per-read retry budget, --deadline-ms the per-VM simulated capture time, and
--min-quorum how many captured VMs the majority vote needs to carry weight.

Exit codes: fleet-check exits 0 when every unit is clean, 2 when any VM is a
vote suspect or statically flagged, 3 when there are no findings but the fleet
cannot vouch for itself (a unit failed or lost its scan quorum), and 1 on
usage or internal errors, including an option the command does not accept.
Other commands exit 0/1.

Serving: serve builds the fleet (same --pools/--seed knobs as fleet-check),
generates a seeded open-loop query stream, and runs the attestation daemon:
per-tenant token-bucket quotas, a bounded admission queue with typed
rejections, health-based routing around quarantined VMs, and degraded
(stale/unscannable) answers when fresh state cannot be had within the
deadline. Same seeds ⇒ byte-identical report, regardless of --shards.

Parallelism: check splits its scan over the host's cores (`taskset -c 0` runs
the paper's sequential scan); --shards spreads a fleet sweep's pools over
threads. Neither changes a report byte.

Push monitoring: --events (monitor, serve) arms EPT-style write traps over
every scanned module's page span and switches rounds to push mode — quiet
(vm, module) pairs are attested straight from the capture cache with zero
guest reads; only pairs dirtied by trapped writes rescan. Verdicts are
identical to polling; steady-state clean rounds cost near nothing.

Active adversaries: fleet-check --cross-view reconciles each pool's in-guest
module lists against a pool-wide physical PE-header sweep and majority-votes
the differences — catching DKOM unlinking (hidden modules) and checker
blinding (unlisted images the redirected list no longer claims); findings
count as integrity findings for the exit code. monitor --scan-jitter MAX_NS
draws a per-round scan-phase offset in [0, MAX_NS) from --jitter-seed
(default 42), denying scrub-race rootkits a learnable cadence; offsets only
move the simulated schedule, so verdicts stay byte-identical.

Static pre-pass: fleet-check --static-prepass (and check --static) runs the
CFG analyzer (lints L1–L9) once per content bucket on top of the canonical
vote, catching vote-invisible tampering such as the IAT pivot; analyze
--metrics-out exports the analyzer's counters.

Techniques: opcode-replacement, inline-hook, stub-modification, dll-hook,
jump-over-junk, iat-pivot, overlapping-decode";

// Option lists shared by several commands, for `Args::accept_only`: the
// testbed builders, `fault_plan_of` with `chaos_config_of`, fleet topology
// and the report outputs.
const BED: &str = "vms width64 infect";
const CHAOS: &str = "fault-seed fault-rate compare retries deadline-ms min-quorum no-fast-capture";
const FLEET: &str = "pools vms-per-pool modules-per-pool seed shards";
const OUTPUTS: &str = "json metrics-out trace-out";

/// Parses the shared chaos flags into an optional [`FaultPlan`] covering
/// every VM. Injection engages when either `--fault-seed` or
/// `--fault-rate` is present (seed defaults to 42, rate to 0.05).
fn fault_plan_of(args: &Args) -> Result<Option<FaultPlan>, String> {
    let seed = args.value("fault-seed")?;
    let rate = match args.raw_value("fault-rate") {
        None => None,
        Some(v) => {
            let r: f64 = v
                .parse()
                .map_err(|_| format!("--fault-rate expects a number in [0,1), got {v:?}"))?;
            if !(0.0..1.0).contains(&r) {
                return Err(format!("--fault-rate must be in [0,1), got {r}"));
            }
            Some(r)
        }
    };
    if seed.is_none() && rate.is_none() {
        return Ok(None);
    }
    Ok(Some(FaultPlan::transient(
        seed.unwrap_or(42) as u64,
        rate.unwrap_or(0.05),
    )))
}

/// Parses `--retries`, `--deadline-ms`, `--min-quorum`, and `--compare`
/// onto a base [`modchecker::CheckConfig`].
fn chaos_config_of(
    args: &Args,
    mut config: modchecker::CheckConfig,
) -> Result<modchecker::CheckConfig, String> {
    config.compare = match args.raw_value("compare") {
        None | Some("pairwise") => modchecker::CompareStrategy::Pairwise,
        Some("canonical") => modchecker::CompareStrategy::Canonical,
        Some(other) => {
            return Err(format!(
                "--compare expects pairwise or canonical, got {other:?}"
            ))
        }
    };
    if let Some(r) = args.value("retries")? {
        config.retry = RetryPolicy::with_max_retries(r as u32);
    }
    if let Some(ms) = args.value("deadline-ms")? {
        config.deadline = Some(SimDuration::from_millis(ms as u64));
    }
    if let Some(q) = args.value("min-quorum")? {
        config.min_quorum = q;
    }
    // The fast path is the default; the flag is the ablation switch back
    // to the paper's page-by-page capture loop.
    config.fast_capture = !args.flag("no-fast-capture");
    Ok(config)
}

fn parse_technique(s: &str) -> Result<Technique, String> {
    match s {
        "opcode-replacement" => Ok(Technique::OpcodeReplacement),
        "inline-hook" => Ok(Technique::InlineHook),
        "stub-modification" => Ok(Technique::StubModification),
        "dll-hook" => Ok(Technique::DllHook),
        "jump-over-junk" => Ok(Technique::JumpOverJunk),
        "iat-pivot" => Ok(Technique::IatPivot),
        "overlapping-decode" => Ok(Technique::OverlappingDecode),
        other => Err(format!(
            "unknown technique {other:?} (see `modchecker techniques`)"
        )),
    }
}

fn width_of(args: &Args) -> AddressWidth {
    if args.flag("width64") {
        AddressWidth::W64
    } else {
        AddressWidth::W32
    }
}

fn build_bed(args: &mut Args) -> Result<(Testbed, Option<String>), String> {
    let n = args.value("vms")?.unwrap_or(5);
    if n < 2 {
        return Err("--vms must be at least 2".into());
    }
    let width = width_of(args);
    let corpus = mc_pe::corpus::standard_corpus(width);
    match args.raw_value("infect") {
        None => Ok((Testbed::cloud_with(n, width, &corpus), None)),
        Some(spec) => {
            let (tech, idx) = spec
                .split_once('@')
                .ok_or_else(|| format!("--infect expects <technique>@<vm-index>, got {spec:?}"))?;
            let technique = parse_technique(tech)?;
            let victim: usize = idx
                .parse()
                .map_err(|_| format!("bad vm index {idx:?} in --infect"))?;
            if victim >= n {
                return Err(format!("vm index {victim} out of range (0..{n})"));
            }
            let (bed, _) = Testbed::infected_cloud_with(n, width, &corpus, technique, &[victim])
                .map_err(|e| e.to_string())?;
            Ok((bed, Some(technique.infection().target_module().to_string())))
        }
    }
}

fn cmd_check(args: &mut Args) -> Result<(), String> {
    args.accept_only(&[BED, CHAOS, OUTPUTS, "module sha256 static"])?;
    let (mut bed, infected_target) = build_bed(args)?;
    let module = args
        .raw_value("module")
        .map(str::to_string)
        .or(infected_target)
        .ok_or("--module is required (or implied by --infect)")?;
    if let Some(plan) = fault_plan_of(args)? {
        bed.hv.inject_fault_plan(plan);
    }
    let config = chaos_config_of(
        args,
        modchecker::CheckConfig {
            digest: if args.flag("sha256") {
                modchecker::DigestAlgo::Sha256
            } else {
                modchecker::DigestAlgo::Md5
            },
            static_prepass: args.flag("static"),
            ..modchecker::CheckConfig::default()
        },
    )?;
    let metrics_out = args.raw_value("metrics-out").map(str::to_string);
    let trace_out = args.raw_value("trace-out").map(str::to_string);
    let report = ModChecker::with_config(config)
        .check_pool(&bed.hv, &bed.vm_ids, &module)
        .map_err(|e| e.to_string())?;

    if metrics_out.is_some() || trace_out.is_some() {
        let obs = modchecker::observe_scan(&report);
        if let Some(path) = &metrics_out {
            let text = serde_json::to_string_pretty(&obs.registry.to_json()).expect("serializable");
            std::fs::write(path, text + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        }
        if let Some(path) = &trace_out {
            std::fs::write(path, obs.trace.to_jsonl())
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
    }

    if args.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report.to_json()).expect("serializable")
        );
    } else {
        print!("{report}");
    }
    Ok(())
}

/// Parses `--hide <module>@<vm-index>` and, when present, DKOM-hides the
/// module on that guest. Validates the module name before touching the
/// guest (`GuestOs::dkom_hide` panics on unknown modules by design).
fn apply_hide(args: &mut Args, bed: &mut Testbed) -> Result<(), String> {
    let Some(spec) = args.raw_value("hide") else {
        return Ok(());
    };
    let (module, idx) = spec
        .split_once('@')
        .ok_or_else(|| format!("--hide expects <module>@<vm-index>, got {spec:?}"))?;
    let victim: usize = idx.parse().map_err(|_| format!("bad index {idx:?}"))?;
    if victim >= bed.guests.len() {
        return Err(format!("vm index {victim} out of range"));
    }
    if bed.guests[victim].find_module(module).is_none() {
        return Err(format!(
            "unknown module {module:?} on vm {victim} (see `modchecker list-modules`)"
        ));
    }
    let module = module.to_string();
    bed.guests[victim]
        .dkom_hide(&mut bed.hv, &module)
        .map_err(|e| e.to_string())
}

fn cmd_analyze(args: &mut Args) -> Result<(), String> {
    args.accept_only(&[BED, "hide module metrics-out json"])?;
    let (mut bed, infected_target) = build_bed(args)?;
    apply_hide(args, &mut bed)?;
    let only_module = args
        .raw_value("module")
        .map(str::to_string)
        .or(infected_target);
    let analyzer = mc_analysis::Analyzer::new();

    let mut reports: Vec<mc_analysis::AnalysisReport> = Vec::new();
    let mut target_captures = 0usize;
    for &vm in &bed.vm_ids {
        let mut session = VmiSession::attach(&bed.hv, vm).map_err(|e| e.to_string())?;
        reports.push(
            analyzer
                .analyze_module_list(&mut session)
                .map_err(|e| e.to_string())?,
        );
        let targets: Vec<String> = match &only_module {
            Some(m) => vec![m.clone()],
            None => ModuleSearcher::list_modules(&mut session)
                .map_err(|e| e.to_string())?
                .into_iter()
                .map(|m| m.name)
                .collect(),
        };
        for name in targets {
            // A module hidden on this VM is the list report's finding, not
            // a capture error.
            let Ok(image) = ModuleSearcher::find(&mut session, &name) else {
                continue;
            };
            target_captures += 1;
            reports.push(
                analyzer
                    .analyze_image(&image.vm_name, &name, image.base, &image.bytes)
                    .map_err(|e| e.to_string())?,
            );
        }
    }
    if let Some(m) = &only_module {
        if target_captures == 0 {
            return Err(format!(
                "module {m:?} not found on any VM (see `modchecker list-modules`)"
            ));
        }
    }

    let mut flagged: Vec<&str> = reports
        .iter()
        .filter(|r| !r.is_clean())
        .map(|r| r.vm_name.as_str())
        .collect();
    flagged.sort_unstable();
    flagged.dedup();

    if let Some(path) = args.raw_value("metrics-out").map(str::to_string) {
        let mut reg = mc_obs::MetricsRegistry::new();
        reg.counter_add("analysis_runs_total", reports.len() as u64);
        reg.counter_add("analysis_flagged_vms_total", flagged.len() as u64);
        reg.counter_add(
            "analysis_findings_total",
            reports.iter().map(|r| r.diagnostics.len() as u64).sum(),
        );
        reg.counter_add(
            "analysis_instructions_decoded_total",
            reports.iter().map(|r| r.instructions_decoded as u64).sum(),
        );
        reg.counter_add(
            "analysis_bytes_scanned_total",
            reports.iter().map(|r| r.bytes_scanned as u64).sum(),
        );
        let text = serde_json::to_string_pretty(&reg.to_json()).expect("serializable");
        std::fs::write(&path, text + "\n").map_err(|e| format!("writing {path}: {e}"))?;
    }

    if args.flag("json") {
        let json = serde_json::json!({
            "flagged_vms": flagged,
            "reports": reports.iter().map(|r| serde_json::json!({
                "vm": r.vm_name,
                "module": r.module,
                "clean": r.is_clean(),
                "instructions_decoded": r.instructions_decoded,
                "bytes_scanned": r.bytes_scanned,
                "diagnostics": r.diagnostics.iter().map(|d| serde_json::json!({
                    "lint": d.lint.code(),
                    "name": d.lint.name(),
                    "severity": d.severity.to_string(),
                    "confidence": d.confidence.to_string(),
                    "va": format!("{:#x}", d.va),
                    "detail": d.detail,
                })).collect::<Vec<_>>(),
            })).collect::<Vec<_>>(),
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&json).expect("serializable")
        );
    } else {
        let clean = reports.iter().filter(|r| r.is_clean()).count();
        println!(
            "static analysis: {} subject(s) across {} VM(s), {} clean",
            reports.len(),
            bed.vm_ids.len(),
            clean
        );
        for r in reports.iter().filter(|r| !r.is_clean()) {
            print!("{r}");
        }
        if flagged.is_empty() {
            println!("no findings");
        } else {
            println!("flagged VMs: {}", flagged.join(", "));
        }
    }
    Ok(())
}

fn cmd_list_modules(args: &mut Args) -> Result<(), String> {
    args.accept_only(&["vms width64"])?;
    let n = args.value("vms")?.unwrap_or(2);
    let bed = Testbed::cloud_with(
        n.max(2),
        width_of(args),
        &mc_pe::corpus::standard_corpus(width_of(args)),
    );
    let mut session = VmiSession::attach(&bed.hv, bed.vm_ids[0]).map_err(|e| e.to_string())?;
    let modules = ModuleSearcher::list_modules(&mut session).map_err(|e| e.to_string())?;
    println!("{:<18} {:>18} {:>10}", "module", "base", "size");
    for m in modules {
        println!("{:<18} {:>#18x} {:>10}", m.name, m.base, m.size);
    }
    Ok(())
}

fn cmd_listdiff(args: &mut Args) -> Result<(), String> {
    args.accept_only(&["vms width64 hide"])?;
    let n = args.value("vms")?.unwrap_or(5);
    let mut bed = Testbed::cloud_with(
        n.max(2),
        width_of(args),
        &mc_pe::corpus::standard_corpus(width_of(args)),
    );
    apply_hide(args, &mut bed)?;
    let report = modchecker::ListDiff::scan(&bed.hv, &bed.vm_ids).map_err(|e| e.to_string())?;
    print!("{report}");
    Ok(())
}

fn cmd_sweep_all(args: &mut Args) -> Result<(), String> {
    args.accept_only(&["vms width64"])?;
    let n = args.value("vms")?.unwrap_or(5);
    let bed = Testbed::cloud_with(
        n.max(2),
        width_of(args),
        &mc_pe::corpus::standard_corpus(width_of(args)),
    );
    let (lists, reports) = ModChecker::new()
        .check_all_modules(&bed.hv, &bed.vm_ids)
        .map_err(|e| e.to_string())?;
    print!("{lists}");
    println!("content checks over {} consensus module(s):", reports.len());
    for (module, result) in &reports {
        match result {
            Ok(report) => {
                let verdict = if report.all_clean() {
                    "clean".to_string()
                } else {
                    let suspects: Vec<String> =
                        report.suspects().map(|v| v.vm_name.clone()).collect();
                    format!("DISCREPANCY {suspects:?}")
                };
                println!("  {module:<16} {verdict}  ({})", report.times);
            }
            Err(e) => println!("  {module:<16} CHECK FAILED: {e}"),
        }
    }
    Ok(())
}

fn cmd_fleet_check(args: &mut Args) -> Result<ExitCode, String> {
    args.accept_only(&[
        FLEET,
        CHAOS,
        OUTPUTS,
        "rounds discover static-prepass cross-view",
    ])?;
    let pools = args.value("pools")?.unwrap_or(3);
    let vms = args.value("vms-per-pool")?.unwrap_or(4);
    let modules = args.value("modules-per-pool")?.unwrap_or(2);
    let shards = args.value("shards")?.unwrap_or(1).max(1);
    let rounds = args.value("rounds")?.unwrap_or(1).max(1);
    if pools < 1 {
        return Err("--pools must be at least 1".into());
    }
    if vms < 2 {
        return Err("--vms-per-pool must be at least 2".into());
    }

    // --seed builds the randomized infected topology the simulation suite
    // uses; without it the fleet is a clean uniform cloud.
    let mut bed = match args.value("seed")? {
        Some(s) => modchecker_repro::fleetgen::random_fleet(s as u64),
        None => modchecker_repro::fleetgen::uniform_fleet(pools, vms, modules, 1),
    };
    if let Some(plan) = fault_plan_of(args)? {
        bed.hv.inject_fault_plan(plan);
    }
    let fleet = if args.flag("discover") {
        let ids: Vec<_> = bed.fleet.pools.iter().flat_map(|p| p.vms.clone()).collect();
        modchecker::Fleet::discover(&bed.hv, &ids)
    } else {
        bed.fleet
    };

    let mut check = chaos_config_of(args, modchecker::CheckConfig::default())?;
    check.static_prepass = args.flag("static-prepass");
    let sched = modchecker::FleetScheduler::new(modchecker::FleetConfig { check, shards });
    let monitor = ContinuousMonitor::new(MonitorConfig {
        check,
        ..MonitorConfig::default()
    });
    let mut last = None;
    for round in 0..rounds {
        let report = monitor.run_fleet_round(&bed.hv, &sched, &fleet);
        if rounds > 1 {
            println!(
                "round {round}: {} unit(s), {} failed, {} suspect pair(s)",
                report.units_total(),
                report.units_failed(),
                report.suspects().len()
            );
        }
        last = Some(report);
    }
    let report = last.expect("rounds >= 1");

    // Cross-view reconciliation: the list walk an adversary can rewrite vs
    // the physical header sweep it cannot — one voted pass per pool.
    let crossview = if args.flag("cross-view") {
        let mut passes = Vec::new();
        for pool in &fleet.pools {
            if pool.vms.len() < 2 {
                continue;
            }
            let cv = monitor
                .run_crossview(&bed.hv, &pool.vms)
                .map_err(|e| format!("cross-view {}: {e}", pool.name))?;
            passes.push((pool.name.clone(), cv));
        }
        Some(passes)
    } else {
        None
    };

    if args.raw_value("metrics-out").is_some() || args.raw_value("trace-out").is_some() {
        let mut obs = modchecker::observe_fleet(&report);
        if args.flag("static-prepass") {
            let stats = sched.analysis_stats();
            obs.registry.gauge_set("analysis_runs", stats.runs as f64);
            obs.registry.gauge_set("analysis_hits", stats.hits as f64);
        }
        if let Some(passes) = &crossview {
            for (_, cv) in passes {
                cv.record_metrics(&mut obs.registry);
            }
        }
        if let Some(path) = args.raw_value("metrics-out").map(str::to_string) {
            let text = serde_json::to_string_pretty(&obs.registry.to_json()).expect("serializable");
            std::fs::write(&path, text + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        }
        if let Some(path) = args.raw_value("trace-out").map(str::to_string) {
            std::fs::write(&path, obs.trace.to_jsonl())
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
    }

    if args.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report.to_json()).expect("serializable")
        );
    } else {
        print!("{report}");
        println!(
            "simulated wall: {} sequential, {} at {shards} shard(s)",
            report.simulated_wall_sequential(),
            modchecker::simulated_fleet_wall(&report, shards)
        );
    }
    if let Some(passes) = &crossview {
        for (pool, cv) in passes {
            if cv.is_clean() {
                eprintln!(
                    "cross-view {pool}: clean ({} VM(s) scanned)",
                    cv.vms_scanned
                );
            } else {
                eprint!("cross-view {pool}: {cv}");
            }
        }
    }

    // Typed exit status so automation reads the verdict without parsing
    // output: 2 = integrity findings (vote suspects or statically flagged
    // VMs), 3 = no findings but the fleet cannot vouch for itself (a unit
    // failed outright or lost its scan quorum), 0 = clean.
    let flagged = report
        .units()
        .any(|u| matches!(&u.result, Ok(r) if !r.static_findings.is_empty()))
        || crossview
            .as_ref()
            .is_some_and(|passes| passes.iter().any(|(_, cv)| !cv.is_clean()));
    let unvouched = report.units().any(|u| match &u.result {
        Ok(r) => r.quorum == modchecker::QuorumStatus::Lost,
        Err(_) => true,
    }) || report
        .pools
        .iter()
        .any(|p| p.vm_names.len() >= 2 && p.units.is_empty());
    if !report.suspects().is_empty() || flagged {
        Ok(ExitCode::from(2))
    } else if unvouched {
        Ok(ExitCode::from(3))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}

/// Parses a float-valued `--name value` option with a default.
fn float_value(args: &Args, name: &str, default: f64) -> Result<f64, String> {
    match args.raw_value(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} expects a number, got {v:?}")),
    }
}

/// `serve`: run the attestation daemon over a seeded open-loop query
/// stream and report every query's typed outcome.
fn cmd_serve(args: &mut Args) -> Result<(), String> {
    args.accept_only(&[
        FLEET,
        CHAOS,
        OUTPUTS,
        "load-seed queries mean-gap-us burst-prob tenants deadline-min-ms deadline-max-ms",
        "unknown-rate queue-capacity quota-rate quota-burst refresh-ms freshness-ms events",
    ])?;
    let pools = args.value("pools")?.unwrap_or(2).max(1);
    let vms = args.value("vms-per-pool")?.unwrap_or(4);
    let modules = args.value("modules-per-pool")?.unwrap_or(2).max(1);
    let shards = args.value("shards")?.unwrap_or(1).max(1);
    if vms < 2 {
        return Err("--vms-per-pool must be at least 2".into());
    }
    let mut bed = match args.value("seed")? {
        Some(s) => modchecker_repro::fleetgen::random_fleet(s as u64),
        None => modchecker_repro::fleetgen::uniform_fleet(pools, vms, modules, 1),
    };
    if let Some(plan) = fault_plan_of(args)? {
        bed.hv.inject_fault_plan(plan);
    }
    let fleet = bed.fleet;

    // Query targets come from what the guests actually load; the daemon
    // re-derives its own catalog from committed sweeps and is the one
    // that says UnknownTarget.
    let mut catalog = Vec::new();
    for pool in &fleet.pools {
        let Some(&vm) = pool.vms.first() else {
            continue;
        };
        let mut session = VmiSession::attach(&bed.hv, vm).map_err(|e| e.to_string())?;
        for m in ModuleSearcher::list_modules(&mut session).map_err(|e| e.to_string())? {
            catalog.push((pool.name.clone(), m.name));
        }
    }
    if catalog.is_empty() {
        return Err("fleet has no scannable modules".into());
    }

    let defaults = mc_loadgen::QueryProfile::default();
    let profile = mc_loadgen::QueryProfile {
        seed: args.value("load-seed")?.map_or(defaults.seed, |s| s as u64),
        queries: args.value("queries")?.unwrap_or(400),
        mean_gap: args
            .value("mean-gap-us")?
            .map_or(defaults.mean_gap, |us| SimDuration::from_micros(us as u64)),
        burst_prob: float_value(args, "burst-prob", defaults.burst_prob)?,
        tenants: args.value("tenants")?.unwrap_or(defaults.tenants).max(1),
        deadline_min: args
            .value("deadline-min-ms")?
            .map_or(defaults.deadline_min, |ms| {
                SimDuration::from_millis(ms as u64)
            }),
        deadline_max: args
            .value("deadline-max-ms")?
            .map_or(defaults.deadline_max, |ms| {
                SimDuration::from_millis(ms as u64)
            }),
        unknown_rate: float_value(args, "unknown-rate", defaults.unknown_rate)?,
    };
    let queries = mc_loadgen::generate(&profile, &catalog);

    let check = chaos_config_of(args, modchecker::CheckConfig::default())?;
    let serve_defaults = modchecker::ServeConfig::default();
    let config = modchecker::ServeConfig {
        fleet: modchecker::FleetConfig { check, shards },
        queue_capacity: args
            .value("queue-capacity")?
            .unwrap_or(serve_defaults.queue_capacity),
        quota: modchecker::QuotaPolicy {
            rate_per_sec: float_value(args, "quota-rate", serve_defaults.quota.rate_per_sec)?,
            burst: float_value(args, "quota-burst", serve_defaults.quota.burst)?,
        },
        refresh_interval: args
            .value("refresh-ms")?
            .map_or(serve_defaults.refresh_interval, |ms| {
                SimDuration::from_millis(ms as u64)
            }),
        freshness_window: args
            .value("freshness-ms")?
            .map_or(serve_defaults.freshness_window, |ms| {
                SimDuration::from_millis(ms as u64)
            }),
        ..serve_defaults
    };
    let server = modchecker::AttestServer::new(config);
    if args.flag("events") {
        let frames = server
            .arm_events(&mut bed.hv, &fleet)
            .map_err(|e| e.to_string())?;
        eprintln!("events: armed write traps over {frames} guest frame(s)");
    }
    let report = server.run(&bed.hv, &fleet, &queries);

    if args.raw_value("metrics-out").is_some() || args.raw_value("trace-out").is_some() {
        let obs = modchecker::observe_serve(&report);
        if let Some(path) = args.raw_value("metrics-out").map(str::to_string) {
            let text = serde_json::to_string_pretty(&obs.registry.to_json()).expect("serializable");
            std::fs::write(&path, text + "\n").map_err(|e| format!("writing {path}: {e}"))?;
        }
        if let Some(path) = args.raw_value("trace-out").map(str::to_string) {
            std::fs::write(&path, obs.trace.to_jsonl())
                .map_err(|e| format!("writing {path}: {e}"))?;
        }
    }

    if args.flag("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report.to_json()).expect("serializable")
        );
    } else {
        print!("{report}");
    }
    Ok(())
}

fn cmd_sweep(args: &mut Args) -> Result<(), String> {
    args.accept_only(&["loaded"])?;
    let loaded = args.flag("loaded");
    let mut bed = Testbed::cloud(15);
    let checker = ModChecker::new();
    println!(
        "{:>4} {:>14} {:>14} {:>14} {:>14}",
        "N", "searcher", "parser", "checker", "total"
    );
    for n in 2..=15usize {
        let ids: Vec<_> = bed.vm_ids[..n].to_vec();
        let mut load = HeavyLoad::new();
        if loaded {
            load.start(&mut bed.hv, &ids, LoadProfile::heavy())
                .map_err(|e| e.to_string())?;
        }
        let report = checker
            .check_one(&bed.hv, ids[0], &ids[1..], "http.sys")
            .map_err(|e| e.to_string())?;
        if loaded {
            load.stop(&mut bed.hv).map_err(|e| e.to_string())?;
        }
        println!(
            "{:>4} {:>14} {:>14} {:>14} {:>14}",
            n,
            format!("{}", report.times.searcher),
            format!("{}", report.times.parser),
            format!("{}", report.times.checker),
            format!("{}", report.times.total()),
        );
    }
    Ok(())
}

fn cmd_monitor(args: &mut Args) -> Result<(), String> {
    args.accept_only(&[
        CHAOS,
        "vms rounds events scan-jitter jitter-seed metrics-out",
    ])?;
    let n = args.value("vms")?.unwrap_or(6);
    let rounds = args.value("rounds")?.unwrap_or(3);
    let mut bed = Testbed::cloud(n.max(2));
    if let Some(plan) = fault_plan_of(args)? {
        bed.hv.inject_fault_plan(plan);
    }
    let check = chaos_config_of(args, modchecker::CheckConfig::default())?;
    let scan_jitter = match args.value("scan-jitter")? {
        Some(max_ns) => Some(ScanJitter {
            seed: args.value("jitter-seed")?.unwrap_or(42) as u64,
            max_ns: max_ns as u64,
        }),
        None => None,
    };
    let mut monitor = ContinuousMonitor::new(MonitorConfig {
        modules: vec!["hal.dll".into(), "http.sys".into(), "tcpip.sys".into()],
        check,
        scan_jitter,
        ..MonitorConfig::default()
    });
    if scan_jitter.is_some() {
        // Draw every round's phase up front: the offsets only move the
        // simulated schedule (verdicts are phase-independent), so showing
        // the schedule and recording the jitter metrics is the whole job.
        for r in 0..rounds {
            let ctx = monitor.round_ctx(r, 1_000_000_000);
            eprintln!(
                "jitter: round {r} scans at +{} ns into its period",
                ctx.scan_offset_ns
            );
        }
    }
    let (tx, rx) = crossbeam::channel::unbounded();
    if args.flag("events") {
        let frames = monitor
            .arm_events(&mut bed.hv, &bed.vm_ids)
            .map_err(|e| e.to_string())?;
        eprintln!("events: armed write traps over {frames} guest frame(s)");
    }
    monitor.run(&bed.hv, &bed.vm_ids, rounds, &tx);
    drop(tx);
    for event in &rx {
        match event {
            MonitorEvent::Clean { round, module } => {
                println!("round {round}: {module:<12} clean");
            }
            MonitorEvent::Degraded {
                round,
                module,
                report,
            } => {
                let out: Vec<String> = report.unscannable().map(|v| v.vm_name.clone()).collect();
                println!(
                    "round {round}: {module:<12} degraded ({} quorum, unscannable {out:?})",
                    report.quorum
                );
            }
            MonitorEvent::Discrepancy {
                round,
                module,
                report,
            } => {
                let suspects: Vec<String> = report.suspects().map(|v| v.vm_name.clone()).collect();
                println!("round {round}: {module:<12} DISCREPANCY {suspects:?}");
            }
            MonitorEvent::Failed {
                round,
                module,
                error,
            } => {
                println!("round {round}: {module:<12} error: {error}");
            }
            MonitorEvent::VmQuarantined {
                round,
                vm_name,
                consecutive_failures,
            } => {
                println!(
                    "round {round}: breaker OPEN for {vm_name} after {consecutive_failures} failed round(s)"
                );
            }
            MonitorEvent::VmRestored { round, vm_name } => {
                println!("round {round}: breaker half-open, re-probing {vm_name}");
            }
        }
    }
    if let Some(path) = args.raw_value("metrics-out").map(str::to_string) {
        let text =
            serde_json::to_string_pretty(&monitor.metrics().to_json()).expect("serializable");
        std::fs::write(&path, text + "\n").map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(())
}

/// Validates a `--metrics-out` export against a JSON schema file — the CI
/// gate that keeps the exporter's shape stable.
fn cmd_validate_metrics(args: &mut Args) -> Result<(), String> {
    args.accept_only(&["file schema"])?;
    let file = args
        .raw_value("file")
        .ok_or("--file is required")?
        .to_string();
    let schema_path = args
        .raw_value("schema")
        .ok_or("--schema is required")?
        .to_string();
    let doc_text = std::fs::read_to_string(&file).map_err(|e| format!("reading {file}: {e}"))?;
    let schema_text =
        std::fs::read_to_string(&schema_path).map_err(|e| format!("reading {schema_path}: {e}"))?;
    let doc = serde_json::from_str(&doc_text).map_err(|e| format!("{file}: {e}"))?;
    let schema = serde_json::from_str(&schema_text).map_err(|e| format!("{schema_path}: {e}"))?;
    match mc_obs::schema::validate(&doc, &schema) {
        Ok(()) => {
            println!("{file}: valid against {schema_path}");
            Ok(())
        }
        Err(errors) => Err(format!(
            "{file}: {} schema violation(s):\n  {}",
            errors.len(),
            errors.join("\n  ")
        )),
    }
}

fn cmd_techniques(args: &Args) -> Result<(), String> {
    args.accept_only(&[])?;
    println!(
        "{:<22} {:<16} {:<10} paper-reported mismatches",
        "technique", "target", "static"
    );
    for t in Technique::COMPLETE {
        let inf = t.infection();
        let flag = match t {
            Technique::OpcodeReplacement => "opcode-replacement",
            Technique::InlineHook => "inline-hook",
            Technique::StubModification => "stub-modification",
            Technique::DllHook => "dll-hook",
            Technique::JumpOverJunk => "jump-over-junk",
            Technique::IatPivot => "iat-pivot",
            Technique::OverlappingDecode => "overlapping-decode",
        };
        let expect: Vec<String> = inf
            .expected_mismatches()
            .iter()
            .map(|e| match e {
                mc_attacks::Expectation::Part(p) => p.to_string(),
                mc_attacks::Expectation::AllSectionHeaders => "all SECTION_HEADERs".to_string(),
            })
            .collect();
        println!(
            "{:<22} {:<16} {:<10} {}",
            flag,
            inf.target_module(),
            inf.statically_detectable().unwrap_or("—"),
            expect.join(", ")
        );
    }
    Ok(())
}
