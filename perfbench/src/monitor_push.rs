//! `monitor_push`: the steady-state push-monitoring path.
//!
//! 12 VMs carry hal.dll, ntfs.sys, tcpip.sys and http.sys. A
//! `ContinuousMonitor` in canonical mode with write traps armed runs one
//! `run_round_events` per op (closed loop, one caller). Between rounds a
//! seeded in-process writer rewrites a few module pages with identical
//! bytes (trap events, dirty pairs, partial tree refreshes), and every
//! [`PLANT_EVERY`] rounds it plants a real one-byte infection, which the
//! round must flag and which is then remediated (snapshot revert plus
//! cache eviction) so the infected set stays bounded.

use std::time::Instant;

use mc_hypervisor::{AddressWidth, EventCursor, Hypervisor, VmId};
use mc_pe::corpus::standard_corpus;
use mc_vmi::VmiSession;
use modchecker::{
    canonical_form, record_pool_report, remediate_vms, ArenaStats, CacheStats, CaptureCache,
    CheckConfig, CheckError, CompareStrategy, ContinuousMonitor, EventPlane, EventPlaneStats,
    ExtractedModule, ModChecker, MonitorConfig, PoolCheckReport, QuorumStatus, VerdictStatus,
};
use modchecker_repro::testbed::Testbed;

use crate::common::{
    jitter_text_sizes, mean, median, percentile, run_cycles, timed_setup, Outcome, Rng, RunCfg,
};
use crate::probe::{self, Calib};
use crate::trace::Tracer;

const VMS: usize = 12;
const MODULES: [&str; 4] = ["hal.dll", "ntfs.sys", "tcpip.sys", "http.sys"];
/// A real infection is planted before every `PLANT_EVERY`-th round.
const PLANT_EVERY: usize = 6;
/// Rounds whose simulated times and counts form the deterministic metrics.
const PREFIX: usize = 120;
const SNAPSHOT: &str = "clean";
/// Latency limit for `sla_qps` on this closed loop (simulated ms).
const SLA_P99_MS: f64 = 500.0;

fn check_config() -> CheckConfig {
    CheckConfig {
        compare: CompareStrategy::Canonical,
        ..CheckConfig::default()
    }
}

fn modules() -> Vec<String> {
    MODULES.iter().map(|m| (*m).to_string()).collect()
}

/// Who runs the rounds: the program's monitor (timed run) or the same
/// calls made one by one (traced run).
enum Runner {
    Program(ContinuousMonitor),
    Mirror {
        plane: EventPlane,
        cache: CaptureCache,
        checker: ModChecker,
        registry: mc_obs::MetricsRegistry,
    },
}

pub struct Bed {
    tb: Testbed,
    runner: Runner,
    /// One clean capture per (module, VM), for the canonical-form replay.
    shadow: Vec<Vec<ExtractedModule>>,
    /// `.text` image range per module (identical on every VM).
    text: Vec<std::ops::Range<usize>>,
    sizes: Vec<u64>,
    writer: Writer,
    cursor: EventCursor,
}

fn setup(seed: u64, mirror: bool) -> Bed {
    let mut rng = Rng::new(seed);
    let corpus = jitter_text_sizes(
        standard_corpus(AddressWidth::W32)
            .into_iter()
            .filter(|b| MODULES.contains(&b.name.as_str()))
            .collect(),
        &mut rng,
    );
    let mut tb = Testbed::cloud_with(VMS, AddressWidth::W32, &corpus);
    let modules = modules();
    let ids = tb.vm_ids.clone();
    let mut runner = if mirror {
        let mut plane = EventPlane::new();
        plane
            .arm_modules(&mut tb.hv, &ids, &modules)
            .expect("arming a healthy cloud");
        Runner::Mirror {
            plane,
            cache: CaptureCache::new(),
            checker: ModChecker::with_config(check_config()),
            registry: mc_obs::MetricsRegistry::new(),
        }
    } else {
        let monitor = ContinuousMonitor::new(MonitorConfig {
            modules: modules.clone(),
            check: check_config(),
            ..MonitorConfig::default()
        });
        monitor
            .arm_events(&mut tb.hv, &ids)
            .expect("arming a healthy cloud");
        Runner::Program(monitor)
    };
    for &id in &ids {
        tb.hv.vm_mut(id).expect("live VM").snapshot(SNAPSHOT);
    }
    // Warm-up round: the cold fill of the capture cache.
    let mut scratch = Tracer::new();
    let warm = round(&mut runner, &tb.hv, &ids, None);
    assert!(warm.iter().all(|(_, r)| r.is_ok()), "warm-up round scans");
    let shadow: Vec<Vec<ExtractedModule>> = MODULES
        .iter()
        .map(|m| {
            ids.iter()
                .map(|&vm| {
                    probe::capture(&mut scratch, &tb.hv, vm, m)
                        .module
                        .expect("clean capture")
                })
                .collect()
        })
        .collect();
    let text = shadow
        .iter()
        .map(|caps| caps[0].parts.exec_sections[0].range.clone())
        .collect();
    let sizes = shadow
        .iter()
        .map(|caps| caps[0].image.bytes.len() as u64)
        .collect();
    let mut cursor = EventCursor::new();
    tb.hv.drain_write_events(&mut cursor);
    Bed {
        tb,
        runner,
        shadow,
        text,
        sizes,
        writer: Writer {
            first_plant: rng.below(MODULES.len()),
            rng,
            infected: Vec::new(),
        },
        cursor,
    }
}

type Round = Vec<(String, Result<PoolCheckReport, CheckError>)>;

/// One push-mode round. The mirror makes `run_round_events`' calls in
/// its order: drain, per-module trusted scan, clear, metrics recording.
fn round(runner: &mut Runner, hv: &Hypervisor, ids: &[VmId], t: Option<&mut Tracer>) -> Round {
    match runner {
        Runner::Program(monitor) => monitor.run_round_events(hv, ids),
        Runner::Mirror {
            plane,
            cache,
            checker,
            registry,
        } => {
            let mut scratch = Tracer::new();
            let t = t.unwrap_or(&mut scratch);
            let s = t.begin("events.drain");
            let drained = plane.drain(hv);
            t.end(s);
            let results: Round = MODULES
                .iter()
                .map(|m| {
                    let trusted = plane.trusted_for(m, ids);
                    let s = t.begin("pool.check_pool_with_cache_trusted");
                    let r = checker.check_pool_with_cache_trusted(hv, ids, m, cache, &trusted);
                    t.end(s);
                    ((*m).to_string(), r)
                })
                .collect();
            plane.clear_dirty();
            registry.counter_add("event_writes_drained_total", drained.len() as u64);
            for (_, r) in &results {
                if let Ok(r) = r {
                    record_pool_report(r, registry);
                }
            }
            hv.record_metrics(registry);
            cache.record_metrics(registry);
            results
        }
    }
}

/// The seeded in-guest writer and its log of planted infections.
struct Writer {
    rng: Rng,
    /// Module index of the first planted infection.
    first_plant: usize,
    /// Planted, not yet remediated: `(vm index, module index)`.
    infected: Vec<(usize, usize)>,
}

/// A planted infection awaiting its flagging round.
struct Plant {
    module: usize,
    delivery_ms: f64,
}

/// The writer's turn before round `k`.
fn write_between(bed: &mut Bed, k: usize) -> Option<Plant> {
    let hv = &mut bed.tb.hv;
    for _ in 0..bed.writer.rng.below(4) {
        let vm = bed.writer.rng.below(VMS);
        let m = bed.writer.rng.below(MODULES.len());
        let size = bed.sizes[m] as usize;
        let off = bed.writer.rng.below(size - 64);
        let base = bed.tb.guests[vm]
            .find_module(MODULES[m])
            .expect("module")
            .base;
        let mut buf = [0u8; 64];
        hv.vm(bed.tb.vm_ids[vm])
            .expect("live VM")
            .read_virt(base + off as u64, &mut buf)
            .expect("mapped module page");
        bed.tb.guests[vm]
            .patch_module(hv, MODULES[m], off as u64, &buf)
            .expect("in-image write");
    }
    hv.drain_write_events(&mut bed.cursor);
    if k % PLANT_EVERY != PLANT_EVERY - 1 {
        return None;
    }
    // Plants rotate through the modules so every prefix infects each one
    // equally often; the seed picks the starting module, VM and byte.
    let vm = bed.writer.rng.below(VMS);
    let m = (bed.writer.first_plant + k / PLANT_EVERY) % MODULES.len();
    let text = bed.text[m].clone();
    let off = text.start + bed.writer.rng.below(text.len());
    let base = bed.tb.guests[vm]
        .find_module(MODULES[m])
        .expect("module")
        .base;
    let mut byte = [0u8; 1];
    hv.vm(bed.tb.vm_ids[vm])
        .expect("live VM")
        .read_virt(base + off as u64, &mut byte)
        .expect("mapped text page");
    let patched = if byte[0] == 0xCC { 0x90 } else { 0xCC };
    bed.tb.guests[vm]
        .patch_module(hv, MODULES[m], off as u64, &[patched])
        .expect("in-image write");
    bed.writer.infected.push((vm, m));
    let delivery_ms = hv
        .drain_write_events(&mut bed.cursor)
        .iter()
        .map(|e| e.latency.as_millis_f64())
        .fold(0.0, f64::max);
    Some(Plant {
        module: m,
        delivery_ms,
    })
}

/// `(verdicts checked, verdict errors)` for one round against the
/// writer's log.
fn oracle(bed: &Bed, results: &Round) -> (u64, u64) {
    let (mut checked, mut errors) = (0, 0);
    for (m, (_, r)) in results.iter().enumerate() {
        let Ok(r) = r else {
            checked += VMS as u64;
            errors += VMS as u64;
            continue;
        };
        for (idx, v) in r.verdicts.iter().enumerate() {
            let infected = bed.writer.infected.contains(&(idx, m));
            let want = if infected {
                VerdictStatus::Suspect
            } else {
                VerdictStatus::Clean
            };
            checked += 1;
            errors += u64::from(v.status != want);
        }
    }
    (checked, errors)
}

/// Reverts every flagged VM and evicts its captures; clears the log.
fn remediate(bed: &mut Bed, results: &Round) -> u64 {
    let mut reverted = 0u64;
    for (_, r) in results {
        let Ok(r) = r else { continue };
        if r.suspects().next().is_none() {
            continue;
        }
        let ids: Vec<VmId> = match &mut bed.runner {
            Runner::Program(monitor) => {
                let names = monitor
                    .remediate(&mut bed.tb.hv, r, SNAPSHOT)
                    .expect("revert to the clean snapshot");
                names
                    .iter()
                    .map(|n| bed.tb.hv.vm_by_name(n).expect("reverted VM").id)
                    .collect()
            }
            Runner::Mirror { cache, .. } => {
                let reverted = remediate_vms(&mut bed.tb.hv, r, SNAPSHOT).expect("revert");
                for (vm, _) in &reverted {
                    cache.evict_vm(*vm);
                }
                reverted.into_iter().map(|(vm, _)| vm).collect()
            }
        };
        reverted += ids.len() as u64;
        bed.writer
            .infected
            .retain(|(vm, _)| !ids.contains(&bed.tb.vm_ids[*vm]));
    }
    // Reverts fire no trap events, so the cursor stays in step.
    bed.tb.hv.drain_write_events(&mut bed.cursor);
    reverted
}

fn round_failed(results: &Round) -> bool {
    results.iter().any(|(_, r)| {
        r.as_ref().map_or(true, |r| {
            r.quorum != QuorumStatus::Full || r.unscannable().next().is_some()
        })
    })
}

/// Deterministic per-round figures, kept for the prefix.
#[derive(Debug, Default, Clone)]
struct RoundFacts {
    sim_ms: f64,
    answer_ms: Vec<f64>,
    reads: u64,
    page_walks: u64,
    translate_hits: u64,
    retries: u64,
    capture_sim_ms: f64,
    parse_sim_ms: f64,
    checker_sim_ms: f64,
    pairs: u64,
    slots: u64,
    residual: u64,
    detect_ms: Option<f64>,
    remediations: u64,
    /// `(module index, simulated checker ns)` of the round's checks that
    /// ran no pairwise compare: their checker charge is canonical forms
    /// only.
    quiet_checker_ns: Vec<(usize, u64)>,
}

fn facts(results: &Round, plant: Option<&Plant>) -> RoundFacts {
    let mut f = RoundFacts::default();
    for (m, (_, r)) in results.iter().enumerate() {
        let Ok(r) = r else { continue };
        let total = r.times.total().as_millis_f64();
        f.sim_ms += total;
        f.answer_ms.push(total);
        f.reads += r.vmi.reads;
        f.page_walks += r.vmi.page_walks;
        f.translate_hits += r.vmi.translate_cache_hits;
        f.retries += r.vmi.retries;
        f.capture_sim_ms += r.times.searcher.as_millis_f64();
        f.parse_sim_ms += r.times.parser.as_millis_f64();
        f.checker_sim_ms += r.times.checker.as_millis_f64();
        f.pairs += r.matrix.len() as u64;
        for o in &r.matrix {
            f.slots += o.slots_adjusted as u64;
            f.residual += o.residual_diffs as u64;
        }
        if r.matrix.is_empty() {
            f.quiet_checker_ns.push((m, r.times.checker.as_nanos()));
        }
        if let Some(p) = plant.filter(|p| p.module == m) {
            // Write-to-flag, as fig_events: trap delivery plus the
            // targeted rescan of the dirty module.
            f.detect_ms = Some(p.delivery_ms + total);
        }
    }
    f
}

/// The shared round loop. `trace` is `Some` in the traced run.
struct LoopOut {
    host_ms: Vec<f64>,
    prefix: Vec<RoundFacts>,
    vouched_bytes: u64,
    rounds: usize,
    out: Outcome,
    before: Snapshot,
    at_prefix: Snapshot,
}

/// Cumulative layer counters at one point of the loop.
#[derive(Debug, Default, Clone)]
struct Snapshot {
    cache: CacheStats,
    plane: EventPlaneStats,
    arena: ArenaStats,
}

fn snapshot(runner: &Runner) -> Snapshot {
    match runner {
        Runner::Program(monitor) => Snapshot {
            cache: monitor.cache_stats(),
            plane: monitor.event_stats().unwrap_or_default(),
            arena: ArenaStats::default(),
        },
        Runner::Mirror { cache, plane, .. } => Snapshot {
            cache: cache.stats(),
            plane: plane.stats(),
            arena: cache.arena_stats(),
        },
    }
}

fn run_loop(
    bed: &mut Bed,
    budget: std::time::Duration,
    mut trace: Option<&mut Tracer>,
    mut calib: Option<&mut Calib>,
) -> LoopOut {
    let ids = bed.tb.vm_ids.clone();
    let mut lo = LoopOut {
        host_ms: Vec::new(),
        prefix: Vec::new(),
        vouched_bytes: 0,
        rounds: 0,
        out: Outcome::default(),
        before: snapshot(&bed.runner),
        at_prefix: Snapshot::default(),
    };
    let rounds = run_cycles(budget, PLANT_EVERY, PREFIX, |k| {
        let plant = write_between(bed, k);
        let t0 = Instant::now();
        let results = match trace.as_deref_mut() {
            Some(t) => {
                t.set_op(k as u64);
                let op = t.begin("op");
                let r = round(&mut bed.runner, &bed.tb.hv, &ids, Some(&mut *t));
                t.end(op);
                r
            }
            None => round(&mut bed.runner, &bed.tb.hv, &ids, None),
        };
        lo.host_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if let (Some(t), Some(calib)) = (trace.as_deref_mut(), calib.as_deref_mut()) {
            for caps in &bed.shadow {
                for m in caps {
                    let s = t.begin("checker.canonical_form");
                    std::hint::black_box(canonical_form(m, None));
                    t.end(s);
                }
            }
            calib.probe(
                t,
                &bed.shadow[k % MODULES.len()][0],
                &bed.shadow[k % MODULES.len()][1],
            );
        }
        let (c, e) = oracle(bed, &results);
        lo.out.verdicts_checked += c;
        lo.out.verdict_errors += e;
        if round_failed(&results) {
            lo.out.failed += 1;
        }
        for (m, (_, r)) in results.iter().enumerate() {
            if let Ok(r) = r {
                lo.vouched_bytes += bed.sizes[m] * r.scanned as u64;
            }
        }
        let mut f = facts(&results, plant.as_ref());
        if plant.is_some() && f.detect_ms.is_none() {
            lo.out.verdict_errors += 1;
        }
        f.remediations = remediate(bed, &results);
        if k < PREFIX {
            lo.prefix.push(f);
            if k + 1 == PREFIX {
                lo.at_prefix = snapshot(&bed.runner);
            }
        }
    });
    lo.rounds = rounds;
    lo.out.attempted = rounds as u64;
    lo
}

pub fn timed(cfg: &RunCfg, budget: std::time::Duration) -> Outcome {
    let (mut bed, setup_s) = timed_setup(|| setup(cfg.seed, false));
    let lo = run_loop(&mut bed, budget, None, None);
    let mut out = lo.out;
    let rounds = lo.rounds;
    let host_s = lo.host_ms.iter().sum::<f64>() / 1e3;
    let sim: Vec<f64> = lo.prefix.iter().map(|f| f.sim_ms).collect();
    let answers: Vec<f64> = lo.prefix.iter().flat_map(|f| f.answer_ms.clone()).collect();
    #[allow(clippy::cast_precision_loss)]
    let reads: Vec<f64> = lo.prefix.iter().map(|f| f.reads as f64).collect();
    let detect: Vec<f64> = lo.prefix.iter().filter_map(|f| f.detect_ms).collect();
    let p99 = percentile(&answers, 99.0);
    out.put_common(setup_s, &lo.host_ms);
    let m = &mut out.metrics;
    #[allow(clippy::cast_precision_loss)]
    {
        m.put("op_sim_ms_p50", median(&sim), "ms");
        m.put("guest_reads_per_op", mean(&reads), "count");
        m.put(
            "checked_mb_per_host_s",
            lo.vouched_bytes as f64 / 1e6 / host_s,
            "MB/s",
        );
        m.put("detect_sim_ms_p50", median(&detect), "ms");
        m.put(
            "queries_per_host_s",
            (rounds * MODULES.len()) as f64 / host_s,
            "1/s",
        );
        m.put("answer_sim_ms_p99", p99, "ms");
        let answered = 1.0 - out.failed as f64 / rounds as f64;
        m.put("answered_share", answered, "share");
        m.put("fresh_share", answered, "share");
        let sla = if p99 <= SLA_P99_MS {
            answers.len() as f64 / (answers.iter().sum::<f64>() / 1e3)
        } else {
            0.0
        };
        m.put("sla_qps", sla, "1/s");
    }
    out.notes.push(format!(
        "monitor_push: {rounds} rounds, p90 over {rounds} samples; simulated metrics over \
         the first {PREFIX} rounds ({} answers, {} planted infections)",
        answers.len(),
        detect.len()
    ));
    out
}

pub fn traced(cfg: &RunCfg) -> Outcome {
    let half = cfg.budget() / 2;
    // Untraced phase through the program's monitor: op p50 for the
    // overhead figure, and the cache counters (`cache_stats`).
    let mut program = setup(cfg.seed, false);
    let mut plain = run_loop(&mut program, half, None, None);
    let untraced_p50 = median(&plain.host_ms);
    plain.out.host_ms_p90 = percentile(&plain.host_ms, 90.0);

    let mut bed = setup(cfg.seed, true);
    let mut t = Tracer::new();
    let mut calib = Calib::default();
    let lo = run_loop(&mut bed, half, Some(&mut t), Some(&mut calib));
    // Cache counters come from the program's monitor (`cache_stats`);
    // the mirror must have made exactly the same cache decisions.
    let cache = delta(&plain.at_prefix.cache, &plain.before.cache);
    assert_eq!(
        format!("{cache:?}"),
        format!("{:?}", delta(&lo.at_prefix.cache, &lo.before.cache)),
        "the traced mirror must make the monitor's cache decisions"
    );
    assert_eq!(
        format!("{:?}", plain.at_prefix.plane),
        format!("{:?}", lo.at_prefix.plane),
        "the traced mirror must see the monitor's write events"
    );

    // One canonical form's simulated charge per module, on a ledger
    // session as `pool_report` charges it.
    let form_sim_ns: Vec<u64> = bed
        .shadow
        .iter()
        .map(|caps| {
            let mut ledger = VmiSession::attach(&bed.tb.hv, bed.tb.vm_ids[0]).expect("attach");
            ledger.take_elapsed();
            std::hint::black_box(canonical_form(&caps[0], Some(&mut ledger)));
            ledger.take_elapsed().as_nanos()
        })
        .collect();
    let ops = lo.rounds;
    let totals = t.totals();
    #[allow(clippy::cast_precision_loss)]
    let per_op_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |v| v.2 as f64 / 1e3 / ops as f64)
    };
    #[allow(clippy::cast_precision_loss)]
    let op_us = totals.get("op").expect("op spans").1 as f64 / 1e3 / ops as f64;
    // Forms the program charged per round: a quiet check's checker charge
    // over one form's charge, scaled to a round's four checks.
    #[allow(clippy::cast_precision_loss)]
    let quiet: Vec<f64> = lo
        .prefix
        .iter()
        .flat_map(|f| &f.quiet_checker_ns)
        .map(|&(m, ns)| ns as f64 / form_sim_ns[m] as f64)
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let forms = mean(&quiet) * MODULES.len() as f64;
    let traced_p50 = median(&lo.host_ms);
    let mut out = lo.out;
    #[allow(clippy::cast_precision_loss)]
    let n = PREFIX as f64;
    let sum = |f: fn(&RoundFacts) -> f64| lo.prefix.iter().map(f).sum::<f64>() / n;
    let m = &mut out.metrics;
    #[allow(clippy::cast_precision_loss)]
    {
        m.put("vmi.capture_sim_ms", sum(|f| f.capture_sim_ms), "ms");
        m.put("vmi.reads", sum(|f| f.reads as f64), "count");
        m.put("vmi.page_walks", sum(|f| f.page_walks as f64), "count");
        m.put(
            "vmi.translate_cache_hits",
            sum(|f| f.translate_hits as f64),
            "count",
        );
        m.put("vmi.retries", sum(|f| f.retries as f64), "count");
        m.put("parts.parse_sim_ms", sum(|f| f.parse_sim_ms), "ms");
        m.put("checker.pairs", sum(|f| f.pairs as f64), "count");
        m.put("checker.slots_adjusted", sum(|f| f.slots as f64), "count");
        m.put(
            "checker.residual_diffs",
            sum(|f| f.residual as f64),
            "count",
        );
        m.put("checker.sim_ms", sum(|f| f.checker_sim_ms), "ms");
        m.put(
            "monitor.remediations",
            sum(|f| f.remediations as f64),
            "count",
        );
        m.put("checker.canonical_forms", forms, "count");
        let replay = totals.get("checker.canonical_form").expect("replay spans");
        m.put(
            "checker.canonical_form_host_us",
            replay.2 as f64 / replay.0.max(1) as f64 / 1e3 * forms,
            "us",
        );
        let c = cache;
        m.put("cache.hits", c.hits as f64 / n, "count");
        m.put("cache.trusted_hits", c.trusted_hits as f64 / n, "count");
        m.put("cache.partial_hits", c.partial_hits as f64 / n, "count");
        m.put("cache.misses", c.misses as f64 / n, "count");
        m.put("cache.evictions", c.evictions as f64 / n, "count");
        m.put(
            "cache.pages_refreshed",
            c.pages_refreshed as f64 / n,
            "count",
        );
        m.put("cache.pages_reused", c.pages_reused as f64 / n, "count");
        let lookups = c.hits + c.partial_hits + c.misses + c.invalidations;
        m.put(
            "cache.useful_ratio",
            (c.hits + c.partial_hits) as f64 / lookups.max(1) as f64,
            "ratio",
        );
        let (a0, a1) = (&lo.before.arena, &lo.at_prefix.arena);
        let (reuses, allocs) = (a1.reuses - a0.reuses, a1.allocs - a0.allocs);
        m.put(
            "arena.reuse_ratio",
            reuses as f64 / (allocs + reuses).max(1) as f64,
            "ratio",
        );
        let (p0, p1) = (&plain.before.plane, &plain.at_prefix.plane);
        m.put(
            "events.drained",
            (p1.events_drained - p0.events_drained) as f64 / n,
            "count",
        );
        m.put(
            "events.dirty_marks",
            (p1.dirty_marks - p0.dirty_marks) as f64 / n,
            "count",
        );
        m.put(
            "events.unattributed",
            (p1.unattributed_events - p0.unattributed_events) as f64 / n,
            "count",
        );
        m.put("events.trusted_pairs", c.trusted_hits as f64 / n, "count");
        m.put(
            "hypervisor.trap_log_entries",
            bed.tb.hv.pending_write_events(&EventCursor::new()) as f64,
            "count",
        );
        m.put("events.drain_host_us", per_op_us("events.drain"), "us");
        m.put(
            "pool.cached_check_host_us",
            per_op_us("pool.check_pool_with_cache_trusted"),
            "us",
        );
        m.put(
            "pool.unattributed_host_us",
            op_us - per_op_us("events.drain") - per_op_us("pool.check_pool_with_cache_trusted"),
            "us",
        );
    }
    m.put("digest.md5_ns_per_byte", calib.md5_ns_per_byte(), "ns/B");
    for (name, v) in calib.model_ratios(&bed.tb.hv.cost) {
        m.put(name, v, "ratio");
    }
    m.put("trace.op_host_ms_p50", traced_p50, "ms");
    m.put("trace.overhead_ms", traced_p50 - untraced_p50, "ms");
    out.notes.push(format!(
        "monitor_push traced: {ops} rounds; untraced p50 {untraced_p50:.3} ms, traced \
         {traced_p50:.3} ms; the checker charge shows {forms:.2} canonical forms per round; \
         canonical_form replayed over all {} captures per round for its host cost",
        MODULES.len() * VMS
    ));
    crate::finish_trace(cfg, "monitor_push", &t, plain.out, out)
}

fn delta(now: &CacheStats, before: &CacheStats) -> CacheStats {
    CacheStats {
        hits: now.hits - before.hits,
        trusted_hits: now.trusted_hits - before.trusted_hits,
        partial_hits: now.partial_hits - before.partial_hits,
        pages_refreshed: now.pages_refreshed - before.pages_refreshed,
        pages_reused: now.pages_reused - before.pages_reused,
        misses: now.misses - before.misses,
        invalidations: now.invalidations - before.invalidations,
        evictions: now.evictions - before.evictions,
        silent_restores: now.silent_restores - before.silent_restores,
    }
}
