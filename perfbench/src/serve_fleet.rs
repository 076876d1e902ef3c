//! `serve_fleet`: the attestation daemon under open-loop tenant traffic.
//!
//! `AttestServer::run` over a `uniform_fleet` (4 pools × 6–8 VMs × 3
//! modules) with the fleet product configuration: canonical compare,
//! static pre-pass, poll refresh, one shard, and a seeded transient
//! `FaultPlan`. One module on one VM carries a planted one-byte
//! infection. Traffic is a bursty open-loop stream from
//! `mc_loadgen::generate` at each rung of a fixed ladder of offered rates
//! (simulated time); one op is one daemon run over one rung's stream on a
//! fresh server, and the ops cycle through the ladder. Latency counts
//! from each query's arrival.

use std::collections::BTreeMap;
use std::time::Instant;

use mc_analysis::Analyzer;
use mc_hypervisor::{FaultPlan, SimDuration};
use mc_loadgen::QueryProfile;
use modchecker::{
    AttestQuery, AttestServer, CheckConfig, CompareStrategy, Confidence, Disposition,
    ExtractedModule, FleetConfig, FleetReport, FleetScheduler, ListDiff, QuorumStatus, Rejected,
    ServeConfig, ServeReport,
};
use modchecker_repro::fleetgen::{uniform_fleet, FleetBed};

use crate::common::{mean, median, run_cycles, timed_setup, Outcome, Rng, RunCfg};
use crate::probe::{self, Calib};
use crate::trace::Tracer;

/// Offered rates of the ladder, queries per simulated second; the first
/// is the base rate.
const LADDER: [f64; 4] = [1_000.0, 2_000.0, 4_000.0, 8_000.0];
/// Simulated length of each rung's stream.
const STREAM_S: f64 = 0.5;
/// `sla_qps` limits: p99 answer latency (the longest deadline a tenant
/// asks for) and the answered share, rejections counting as misses.
const SLA_P99_MS: f64 = 5.0;
const SLA_ANSWERED: f64 = 0.75;
const FAULT_RATE: f64 = 0.01;
/// Each rung's stream starts this long after the daemon does, so its
/// first refresh sweep (about 25 simulated ms) has committed a verdict for
/// every unit: queries meet the daemon in steady state, not cold.
const LEAD_MS: u64 = 50;

pub struct Bed {
    fleet: FleetBed,
    config: ServeConfig,
    streams: Vec<Vec<AttestQuery>>,
    /// The planted infection: `(pool, module, vm)`.
    infected: (String, String, String),
    /// One clean capture pair per `(pool, module)`, for the probes.
    shadow: Vec<(ExtractedModule, ExtractedModule)>,
    /// `SizeOfImage` per module name.
    sizes: BTreeMap<String, u64>,
}

fn config() -> ServeConfig {
    ServeConfig {
        fleet: FleetConfig {
            check: CheckConfig {
                compare: CompareStrategy::Canonical,
                static_prepass: true,
                ..CheckConfig::default()
            },
            // One shard: with two, sweep host times on a shared 2-core
            // machine followed the load on the other core.
            shards: 1,
            ..FleetConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// Mean inter-arrival gap of `mc_loadgen`'s two-mode draw is
/// `0.25 · 0.05 · g + 0.75 · g`; solve for the gap that offers `rate`.
fn gap_for(rate: f64) -> SimDuration {
    SimDuration::from_nanos((1e9 / rate / 0.7625).round() as u64)
}

pub fn setup(seed: u64) -> Bed {
    let mut rng = Rng::new(seed);
    let mut fleet = uniform_fleet(4, 6, 3, seed);
    let mut scratch = Tracer::new();

    // Plant the infection: one byte of `.text`, one VM, one unit.
    let p = rng.below(fleet.fleet.pools.len());
    let pool = fleet.fleet.pools[p].clone();
    let (_, names) = &fleet.truth.consensus[p];
    let module = names[rng.below(names.len())].clone();
    let v = rng.below(pool.vms.len());
    let clean = probe::capture(&mut scratch, &fleet.hv, pool.vms[v], &module)
        .module
        .expect("clean capture");
    let text = clean.parts.exec_sections[0].range.clone();
    let off = text.start + rng.below(text.len());
    let old = clean.image.bytes[off];
    fleet.guests[p][v]
        .patch_module(
            &mut fleet.hv,
            &module,
            off as u64,
            &[if old == 0xCC { 0x90 } else { 0xCC }],
        )
        .expect("in-image write");
    let vm_name = fleet.hv.vm(pool.vms[v]).expect("live VM").name.clone();
    let infected = (pool.name.clone(), module, vm_name);

    let mut shadow = Vec::new();
    let mut sizes = BTreeMap::new();
    for (p, (_, names)) in fleet.truth.consensus.iter().enumerate() {
        let vms = &fleet.fleet.pools[p].vms;
        for m in names {
            let cap = |i: usize| {
                probe::capture(&mut Tracer::new(), &fleet.hv, vms[i], m)
                    .module
                    .expect("clean capture")
            };
            // Skip the victim so the probes see two clean peers.
            let (a, b) = if vms[0] == pool.vms[v] || vms[1] == pool.vms[v] {
                (cap(2), cap(3))
            } else {
                (cap(0), cap(1))
            };
            sizes.insert(m.clone(), a.image.bytes.len() as u64);
            shadow.push((a, b));
        }
    }

    fleet
        .hv
        .inject_fault_plan(FaultPlan::transient(seed ^ 0xFA17, FAULT_RATE));
    let catalog: Vec<(String, String)> = fleet
        .truth
        .consensus
        .iter()
        .flat_map(|(pool, ms)| ms.iter().map(move |m| (pool.clone(), m.clone())))
        .collect();
    let streams = LADDER
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let queries = (rate * STREAM_S) as usize;
            let profile = QueryProfile {
                seed: seed.wrapping_mul(31).wrapping_add(i as u64),
                queries,
                mean_gap: gap_for(rate),
                unknown_rate: 0.0,
                ..QueryProfile::default()
            };
            let mut stream = mc_loadgen::generate(&profile, &catalog);
            for q in &mut stream {
                q.at += SimDuration::from_millis(LEAD_MS);
            }
            stream
        })
        .collect();
    let config = config();
    // Warm-up: one refresh sweep, the daemon's unit of guest work.
    let warm = FleetScheduler::new(config.fleet).sweep(&fleet.hv, &fleet.fleet);
    assert_eq!(warm.units_failed(), 0, "warm-up sweep scans every unit");
    Bed {
        fleet,
        config,
        streams,
        infected,
        shadow,
        sizes,
    }
}

/// `(verdicts checked, verdict errors, excused)` for one run against the
/// truth. Nothing outside the planted unit is ever named. On the planted
/// unit the planted VM is the only one named, except where the verdict
/// could not have seen it: the circuit breaker quarantined it during the
/// run (verdicts stamped while it is quarantined route around it), or
/// the scan behind the verdict lost a VM (degraded quorum). Such a
/// verdict may name no one; `excused` counts those answers.
fn oracle(bed: &Bed, report: &ServeReport) -> (u64, u64, u64) {
    let (mut checked, mut errors, mut excused) = (0, 0, 0);
    let (ip, im, ivm) = &bed.infected;
    let victim_quarantined = report.quarantined_vms.contains(ivm);
    for q in &report.queries {
        let Disposition::Answered {
            verdict: Some(v), ..
        } = &q.disposition
        else {
            continue;
        };
        let victim_unit = &q.pool == ip && &q.module == im;
        let unseen = victim_quarantined || v.quorum != QuorumStatus::Full;
        let suspects_ok = match v.suspects.as_slice() {
            [] => !victim_unit || unseen,
            [one] => victim_unit && one == ivm,
            _ => false,
        };
        let flagged_ok = v.flagged.iter().all(|f| victim_unit && f == ivm);
        let clean_ok = v.clean == (v.suspects.is_empty() && v.flagged.is_empty());
        checked += 1;
        errors += u64::from(!(suspects_ok && flagged_ok && clean_ok));
        excused += u64::from(victim_unit && v.suspects.is_empty());
    }
    (checked, errors, excused)
}

/// Queries the daemon could not vouch for: answered `Unscannable`, with no
/// verdict at all, or rejected as an unknown target (the streams ask only
/// for units that exist, so that means the daemon could not list the
/// pool). A stale fallback after an on-demand rescan missed its deadline
/// still carries a verdict; it counts against `fresh_share`.
fn failed_queries(report: &ServeReport) -> u64 {
    report
        .queries
        .iter()
        .filter(|q| {
            matches!(
                &q.disposition,
                Disposition::Answered { verdict: None, .. }
                    | Disposition::Rejected(Rejected::UnknownTarget)
            )
        })
        .count() as u64
}

fn run_once(bed: &Bed, rung: usize) -> ServeReport {
    AttestServer::new(bed.config).run(&bed.fleet.hv, &bed.fleet.fleet, &bed.streams[rung])
}

/// Per-sweep reads and vouched bytes of the daemon's refresh sweeps,
/// replayed on a twin scheduler (the daemon's sweeps are deterministic
/// and internal).
struct SweepFacts {
    reads: Vec<u64>,
    vouched: Vec<u64>,
}

fn replay_sweeps(bed: &Bed, n: usize) -> SweepFacts {
    let twin = FleetScheduler::new(bed.config.fleet);
    let mut f = SweepFacts {
        reads: Vec::with_capacity(n),
        vouched: Vec::with_capacity(n),
    };
    for _ in 0..n {
        let r = twin.sweep(&bed.fleet.hv, &bed.fleet.fleet);
        let (reads, vouched) = sweep_reads_vouched(bed, &r);
        f.reads.push(reads);
        f.vouched.push(vouched);
    }
    f
}

fn sweep_reads_vouched(bed: &Bed, r: &FleetReport) -> (u64, u64) {
    let mut reads = 0;
    let mut vouched = 0;
    for pool in &r.pools {
        for u in &pool.units {
            if let Ok(rep) = &u.result {
                reads += rep.vmi.reads;
                vouched += bed.sizes.get(&u.module).copied().unwrap_or(0) * rep.scanned as u64;
            }
        }
    }
    (reads, vouched)
}

/// Deterministic figures of one rung's run.
#[derive(Debug, Clone)]
struct RungFacts {
    report: ServeReport,
    reads: u64,
    vouched: u64,
}

fn first_cycle(bed: &Bed, reports: Vec<ServeReport>) -> Vec<RungFacts> {
    let most = reports.iter().map(|r| r.sweeps_started).max().unwrap_or(0);
    let sweeps = replay_sweeps(bed, most);
    reports
        .into_iter()
        .map(|report| RungFacts {
            reads: sweeps.reads[..report.sweeps_started].iter().sum(),
            vouched: sweeps.vouched[..report.sweeps_committed].iter().sum(),
            report,
        })
        .collect()
}

fn answered_fresh(r: &ServeReport) -> (usize, usize) {
    (r.answered(), r.answered_at(Confidence::Fresh))
}

pub fn timed(cfg: &RunCfg, budget: std::time::Duration) -> Outcome {
    let (bed, setup_s) = timed_setup(|| setup(cfg.seed));
    let mut out = Outcome::default();
    let mut host_ms = Vec::new();
    let mut reports = Vec::new();
    let mut queries = 0usize;
    let mut excused = 0u64;
    let ops = run_cycles(budget, LADDER.len(), LADDER.len(), |i| {
        let rung = i % LADDER.len();
        let t0 = Instant::now();
        let report = run_once(&bed, rung);
        let dt = t0.elapsed().as_secs_f64();
        host_ms.push(dt * 1e3);
        queries += report.queries.len();
        let (c, e, x) = oracle(&bed, &report);
        out.verdicts_checked += c;
        out.verdict_errors += e;
        excused += x;
        out.failed += failed_queries(&report);
        if i < LADDER.len() {
            reports.push(report);
        }
    });
    // The daemon's unit of work is the query: failures count per query.
    out.attempted = queries as u64;
    let cycles = ops / LADDER.len();
    let facts = first_cycle(&bed, reports);
    let host_s = host_ms.iter().sum::<f64>() / 1e3;
    let base = &facts[0].report;
    let ms = |d: Option<SimDuration>| d.map_or(0.0, SimDuration::as_millis_f64);
    let per_rung = |r: &ServeReport| {
        let (answered, _) = answered_fresh(r);
        #[allow(clippy::cast_precision_loss)]
        let share = answered as f64 / r.queries.len().max(1) as f64;
        (ms(r.latency_percentile(99.0)), share)
    };
    let sla = LADDER
        .iter()
        .zip(&facts)
        .filter(|(_, f)| {
            let (p99, share) = per_rung(&f.report);
            p99 <= SLA_P99_MS && share >= SLA_ANSWERED
        })
        .map(|(&rate, _)| rate)
        .fold(0.0, f64::max);
    let (mut answered, mut fresh, mut total) = (0usize, 0usize, 0usize);
    for f in &facts {
        let (a, fr) = answered_fresh(&f.report);
        answered += a;
        fresh += fr;
        total += f.report.queries.len();
    }
    #[allow(clippy::cast_precision_loss)]
    let busy: Vec<f64> = facts
        .iter()
        .map(|f| (f.report.refresh_busy + f.report.service_busy).as_millis_f64())
        .collect();
    #[allow(clippy::cast_precision_loss)]
    let reads: Vec<f64> = facts.iter().map(|f| f.reads as f64).collect();
    // Cycles repeat the first one's deterministic work.
    #[allow(clippy::cast_precision_loss)]
    let vouched = facts.iter().map(|f| f.vouched).sum::<u64>() as f64 * cycles as f64;
    // Poll-model detection at the base rate: a write landing at fraction
    // f of the refresh period is seen by the next sweep and served once
    // that sweep commits: (1 − f)·period + wall; median at f = ½.
    #[allow(clippy::cast_precision_loss)]
    let wall = base.refresh_busy.as_millis_f64() / base.sweeps_started.max(1) as f64;
    let period = bed.config.refresh_interval.as_millis_f64().max(wall);
    out.put_common(setup_s, &host_ms);
    let m = &mut out.metrics;
    #[allow(clippy::cast_precision_loss)]
    {
        m.put("op_sim_ms_p50", median(&busy), "ms");
        m.put("guest_reads_per_op", mean(&reads), "count");
        m.put("checked_mb_per_host_s", vouched / 1e6 / host_s, "MB/s");
        m.put("detect_sim_ms_p50", 0.5 * period + wall, "ms");
        m.put("queries_per_host_s", queries as f64 / host_s, "1/s");
        m.put("answer_sim_ms_p99", per_rung(base).0, "ms");
        m.put("answered_share", answered as f64 / total as f64, "share");
        m.put("fresh_share", fresh as f64 / total as f64, "share");
        m.put("sla_qps", sla, "1/s");
    }
    let rungs: Vec<String> = LADDER
        .iter()
        .zip(&facts)
        .map(|(rate, f)| {
            let (p99, share) = per_rung(&f.report);
            format!("{rate}/s: p99 {p99:.3} ms, answered {share:.3}")
        })
        .collect();
    out.notes.push(format!(
        "serve_fleet: {ops} runs ({cycles} ladder cycles), p90 over {ops} samples; \
         base-rate p99 over {} answers; {excused} answers on the planted unit could not \
         see the planted VM; rungs: {}",
        base.answered(),
        rungs.join("; ")
    ));
    out
}

pub fn traced(cfg: &RunCfg) -> Outcome {
    let half = cfg.budget() / 2;
    let untraced = timed(cfg, half);
    let untraced_p50 = untraced.metrics.get("op_host_ms_p50").unwrap_or(0.0);

    let bed = setup(cfg.seed);
    let mut t = Tracer::new();
    let mut calib = Calib::default();
    let mut out = Outcome::default();
    let mut host_ms = Vec::new();
    let mut first = Vec::new();
    let mut sweep_ns = 0u64;
    let mut run_ns = 0u64;
    let ops = run_cycles(half, LADDER.len(), LADDER.len(), |i| {
        let rung = i % LADDER.len();
        t.set_op(i as u64);
        let t0 = Instant::now();
        let op = t.begin("op");
        let s = t.begin("serve.run");
        let report = run_once(&bed, rung);
        t.end(s);
        t.end(op);
        host_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        run_ns += t.duration_ns(s);
        let (c, e, _) = oracle(&bed, &report);
        out.verdicts_checked += c;
        out.verdict_errors += e;
        out.attempted += report.queries.len() as u64;
        out.failed += failed_queries(&report);

        // Probes: replay the run's refresh sweeps on a twin scheduler,
        // then one list scan per pool and one analysis per unit.
        let twin = FleetScheduler::new(bed.config.fleet);
        let mut sweeps = Vec::with_capacity(report.sweeps_started);
        for _ in 0..report.sweeps_started {
            let s = t.begin("sched.sweep");
            let r = twin.sweep(&bed.fleet.hv, &bed.fleet.fleet);
            t.end(s);
            sweep_ns += t.duration_ns(s);
            sweeps.push(r);
        }
        for pool in &bed.fleet.fleet.pools {
            let s = t.begin("listdiff.scan_with");
            let l = ListDiff::scan_with(&bed.fleet.hv, &pool.vms, true);
            t.end(s);
            std::hint::black_box(l.expect("list scan"));
        }
        let analyzer = Analyzer::new();
        for (a, _) in &bed.shadow {
            let s = t.begin("analysis.analyze_image");
            let r = analyzer.analyze_image(
                &a.image.vm_name,
                &a.image.name,
                a.image.base,
                &a.image.bytes,
            );
            t.end(s);
            std::hint::black_box(r.expect("clean image parses"));
        }
        let (a, b) = &bed.shadow[i % bed.shadow.len()];
        calib.probe(&mut t, a, b);
        if i < LADDER.len() {
            first.push((report, sweeps, twin.analysis_stats()));
        }
    });

    let totals = t.totals();
    #[allow(clippy::cast_precision_loss)]
    let per_call = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |v| v.2 as f64 / v.0.max(1) as f64)
    };
    #[allow(clippy::cast_precision_loss)]
    let per_op = |name: &str| totals.get(name).map_or(0.0, |v| v.2 as f64 / ops as f64);
    #[allow(clippy::cast_precision_loss)]
    let n = LADDER.len() as f64;
    let mut c = ServeCounts::default();
    for (report, sweeps, analysis) in &first {
        c.sweeps_started += report.sweeps_started as u64;
        c.sweeps_committed += report.sweeps_committed as u64;
        c.rescans += report.rescans as u64;
        c.rescan_failures += report.rescan_failures as u64;
        c.max_queue_depth += report.max_queue_depth as u64;
        c.rejected_quota += report.rejected_for(Rejected::QuotaExceeded) as u64;
        c.rejected_queue_full += report.rejected_for(Rejected::QueueFull) as u64;
        c.rejected_expired += report.rejected_for(Rejected::DeadlineExpired) as u64;
        c.quarantine_events += report.quarantine_events as u64;
        c.refresh_busy_ms += report.refresh_busy.as_millis_f64();
        c.service_busy_ms += report.service_busy.as_millis_f64();
        c.analysis_runs += analysis.runs;
        c.analysis_hits += analysis.hits;
        for r in sweeps {
            c.units += r.units_total() as u64;
            for u in r.units() {
                let Ok(rep) = &u.result else { continue };
                c.reads += rep.vmi.reads;
                c.page_walks += rep.vmi.page_walks;
                c.translate_hits += rep.vmi.translate_cache_hits;
                c.retries += rep.vmi.retries;
                c.capture_sim_ms += rep.times.searcher.as_millis_f64();
                c.parse_sim_ms += rep.times.parser.as_millis_f64();
                c.checker_sim_ms += rep.times.checker.as_millis_f64();
                c.pairs += rep.matrix.len() as u64;
                for o in &rep.matrix {
                    c.slots += o.slots_adjusted as u64;
                    c.residual += o.residual_diffs as u64;
                }
            }
        }
    }
    let traced_p50 = median(&host_ms);
    let m = &mut out.metrics;
    #[allow(clippy::cast_precision_loss)]
    {
        let f = |v: u64| v as f64 / n;
        m.put("vmi.reads", f(c.reads), "count");
        m.put("vmi.page_walks", f(c.page_walks), "count");
        m.put("vmi.translate_cache_hits", f(c.translate_hits), "count");
        m.put("vmi.retries", f(c.retries), "count");
        m.put("vmi.capture_sim_ms", c.capture_sim_ms / n, "ms");
        m.put("parts.parse_sim_ms", c.parse_sim_ms / n, "ms");
        m.put("checker.sim_ms", c.checker_sim_ms / n, "ms");
        m.put("checker.pairs", f(c.pairs), "count");
        m.put("checker.slots_adjusted", f(c.slots), "count");
        m.put("checker.residual_diffs", f(c.residual), "count");
        m.put("sched.sweep_host_ms", per_call("sched.sweep") / 1e6, "ms");
        m.put("sched.sweeps_started", f(c.sweeps_started), "count");
        m.put("sched.sweeps_committed", f(c.sweeps_committed), "count");
        m.put(
            "sched.units",
            c.units as f64 / c.sweeps_started.max(1) as f64,
            "count",
        );
        m.put(
            "listdiff.scan_host_us",
            per_call("listdiff.scan_with") / 1e3,
            "us",
        );
        m.put(
            "analysis.analyze_host_us",
            per_call("analysis.analyze_image") / 1e3,
            "us",
        );
        m.put("analysis.runs", f(c.analysis_runs), "count");
        m.put("analysis.hits", f(c.analysis_hits), "count");
        m.put("serve.run_host_ms", per_op("serve.run") / 1e6, "ms");
        m.put("serve.rescans", f(c.rescans), "count");
        m.put("serve.rescan_failures", f(c.rescan_failures), "count");
        m.put("serve.max_queue_depth", f(c.max_queue_depth), "count");
        m.put("serve.rejected_quota", f(c.rejected_quota), "count");
        m.put(
            "serve.rejected_queue_full",
            f(c.rejected_queue_full),
            "count",
        );
        m.put("serve.rejected_expired", f(c.rejected_expired), "count");
        m.put("serve.quarantine_events", f(c.quarantine_events), "count");
        m.put("serve.refresh_busy_sim_ms", c.refresh_busy_ms / n, "ms");
        m.put("serve.service_busy_sim_ms", c.service_busy_ms / n, "ms");
        m.put(
            "serve.refresh_host_share",
            sweep_ns as f64 / run_ns.max(1) as f64,
            "ratio",
        );
        let op_ns = totals.get("op").map_or(0, |v| v.1);
        m.put(
            "pool.unattributed_host_us",
            (op_ns as f64 - per_op("serve.run") * ops as f64) / 1e3 / ops as f64,
            "us",
        );
    }
    m.put("digest.md5_ns_per_byte", calib.md5_ns_per_byte(), "ns/B");
    for (name, v) in calib.model_ratios(&bed.fleet.hv.cost) {
        m.put(name, v, "ratio");
    }
    m.put("trace.op_host_ms_p50", traced_p50, "ms");
    m.put("trace.overhead_ms", traced_p50 - untraced_p50, "ms");
    out.notes.push(format!(
        "serve_fleet traced: {ops} runs; untraced p50 {untraced_p50:.3} ms, traced \
         {traced_p50:.3} ms; refresh sweeps replayed on a twin scheduler"
    ));
    crate::finish_trace(cfg, "serve_fleet", &t, untraced, out)
}

#[derive(Debug, Default)]
struct ServeCounts {
    sweeps_started: u64,
    sweeps_committed: u64,
    units: u64,
    rescans: u64,
    rescan_failures: u64,
    max_queue_depth: u64,
    rejected_quota: u64,
    rejected_queue_full: u64,
    rejected_expired: u64,
    quarantine_events: u64,
    refresh_busy_ms: f64,
    service_busy_ms: f64,
    analysis_runs: u64,
    analysis_hits: u64,
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
}
