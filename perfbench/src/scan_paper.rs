//! `scan_paper`: the paper's Fig. 7 operation on the paper's testbed.
//!
//! 15 × 32-bit VMs carry the 11-module standard corpus; one VM carries a
//! §V.B infection applied on disk before boot (`Testbed::infected_cloud_with`).
//! One op is one uncached `ModChecker::check_pool` under the default
//! configuration (pairwise Algorithm 2, MD5, sequential, fast capture),
//! cycling through the corpus; closed loop, one caller. The seed picks the
//! technique, the victim VM and a ±2% jitter of every module's `.text`
//! size, so simulated times move a little from seed to seed.

use std::time::Instant;

use mc_attacks::Technique;
use mc_hypervisor::AddressWidth;
use mc_pe::corpus::standard_corpus;
use modchecker::{
    compare_pair_with, ModChecker, PairScratch, PartId, PoolCheckReport, QuorumStatus,
    VerdictStatus,
};
use modchecker_repro::testbed::Testbed;

use crate::common::{
    jitter_text_sizes, mean, median, percentile, run_cycles, timed_setup, Outcome, Rng, RunCfg,
};
use crate::probe::{self, Calib};
use crate::trace::Tracer;

const VMS: usize = 15;
/// Latency limit for `sla_qps` on this closed loop (simulated ms).
const SLA_P99_MS: f64 = 2_000.0;

pub struct Bed {
    tb: Testbed,
    modules: Vec<String>,
    target: String,
    victim: usize,
    expected: Vec<PartId>,
    /// `SizeOfImage` per module (corpus order).
    sizes: Vec<u64>,
}

pub fn setup(seed: u64) -> Bed {
    let mut rng = Rng::new(seed);
    let technique = Technique::ALL[rng.below(Technique::ALL.len())];
    let victim = rng.below(VMS);
    let blueprints = jitter_text_sizes(standard_corpus(AddressWidth::W32), &mut rng);
    let (tb, expected) =
        Testbed::infected_cloud_with(VMS, AddressWidth::W32, &blueprints, technique, &[victim])
            .expect("the paper's techniques apply to the standard corpus");
    let modules: Vec<String> = blueprints.iter().map(|b| b.name.clone()).collect();
    let sizes = modules
        .iter()
        .map(|m| u64::from(tb.guests[0].find_module(m).expect("corpus module").size))
        .collect();
    let mut expected = expected;
    expected.sort();
    let bed = Bed {
        target: technique.infection().target_module().to_string(),
        tb,
        modules,
        victim,
        expected,
        sizes,
    };
    // Warm-up: one small uncached check (page tables and allocator touched).
    let smallest = (0..bed.modules.len())
        .min_by_key(|&i| bed.sizes[i])
        .expect("non-empty corpus");
    let warm = ModChecker::new()
        .check_pool(&bed.tb.hv, &bed.tb.vm_ids, &bed.modules[smallest])
        .expect("warm-up scan");
    std::hint::black_box(warm);
    bed
}

/// Ground truth for one VM's verdict: `Some(expected parts)` for the
/// victim on the technique's target module, `None` (clean) elsewhere.
fn expect_for<'a>(bed: &'a Bed, module: &str, vm_idx: usize) -> Option<&'a [PartId]> {
    (module == bed.target && vm_idx == bed.victim).then_some(bed.expected.as_slice())
}

/// `(verdicts checked, verdict errors)` for one pool report.
fn oracle(bed: &Bed, module: &str, r: &PoolCheckReport) -> (u64, u64) {
    let mut errors = 0;
    for (idx, v) in r.verdicts.iter().enumerate() {
        let ok = match expect_for(bed, module, idx) {
            Some(parts) => {
                let mut got = v.suspect_parts.clone();
                got.sort();
                v.status == VerdictStatus::Suspect && got == parts
            }
            None => v.status == VerdictStatus::Clean,
        };
        if !ok {
            errors += 1;
        }
    }
    (r.verdicts.len() as u64, errors)
}

fn failed(r: &Result<PoolCheckReport, modchecker::CheckError>) -> bool {
    r.as_ref().map_or(true, |r| {
        r.quorum != QuorumStatus::Full || r.unscannable().next().is_some()
    })
}

/// Timed run: `check_pool` per op, no tracing.
pub fn timed(cfg: &RunCfg, budget: std::time::Duration) -> Outcome {
    let (bed, setup_s) = timed_setup(|| setup(cfg.seed));
    let checker = ModChecker::new();
    let n = bed.modules.len();
    let mut out = Outcome::default();
    let mut host_ms = Vec::new();
    let mut sim = Vec::new(); // first pass only
    let mut reads = Vec::new(); // first pass only
    let mut vouched_bytes = 0u64;
    let mut answered = 0u64;
    let ops = run_cycles(budget, n, n, |i| {
        let module = &bed.modules[i % n];
        let t0 = Instant::now();
        let r = checker.check_pool(&bed.tb.hv, &bed.tb.vm_ids, module);
        let dt = t0.elapsed().as_secs_f64();
        host_ms.push(dt * 1e3);
        if failed(&r) {
            out.failed += 1;
        }
        if let Ok(r) = &r {
            let (c, e) = oracle(&bed, module, r);
            out.verdicts_checked += c;
            out.verdict_errors += e;
            vouched_bytes += bed.sizes[i % n] * r.scanned as u64;
            if r.quorum == QuorumStatus::Full {
                answered += 1;
            }
            if i < n {
                sim.push(r.times.total().as_millis_f64());
                out.first_cycle_sim_ns.push(r.times.total().as_nanos());
                #[allow(clippy::cast_precision_loss)]
                reads.push(r.vmi.reads as f64);
            }
        } else {
            out.verdict_errors += 1;
        }
    });
    out.attempted = ops as u64;
    let host_s: f64 = host_ms.iter().sum::<f64>() / 1e3;
    let pass_ms: f64 = sim.iter().sum();
    // Poll-model detection (as fig_events): a write landing at fraction f
    // of the pass in flight is flagged one full pass later.
    let detect: Vec<f64> = (0..15)
        .map(|k| {
            let f = (f64::from(k) + 0.5) / 15.0;
            (1.0 - f) * pass_ms + pass_ms
        })
        .collect();
    let p99 = percentile(&sim, 99.0);
    out.put_common(setup_s, &host_ms);
    let m = &mut out.metrics;
    #[allow(clippy::cast_precision_loss)]
    {
        m.put("op_sim_ms_p50", median(&sim), "ms");
        m.put("guest_reads_per_op", mean(&reads), "count");
        m.put(
            "checked_mb_per_host_s",
            vouched_bytes as f64 / 1e6 / host_s,
            "MB/s",
        );
        m.put("detect_sim_ms_p50", median(&detect), "ms");
        m.put("queries_per_host_s", ops as f64 / host_s, "1/s");
        m.put("answer_sim_ms_p99", p99, "ms");
        m.put("answered_share", answered as f64 / ops as f64, "share");
        m.put("fresh_share", answered as f64 / ops as f64, "share");
        let sla = if p99 <= SLA_P99_MS {
            sim.len() as f64 / (pass_ms / 1e3)
        } else {
            0.0
        };
        m.put("sla_qps", sla, "1/s");
    }
    out.notes.push(format!(
        "scan_paper: {ops} ops ({} passes of {n} modules), p90 over {ops} samples; \
         simulated metrics over the first pass ({n} answers)",
        ops / n
    ));
    out
}

/// Traced run: the same op rebuilt from the layers' public calls.
pub fn traced(cfg: &RunCfg) -> Outcome {
    let half = cfg.budget() / 2;
    let untraced = timed(cfg, half);
    let untraced_p50 = untraced.metrics.get("op_host_ms_p50").unwrap_or(0.0);

    let bed = setup(cfg.seed);
    let hv = &bed.tb.hv;
    let ids = &bed.tb.vm_ids;
    let n = bed.modules.len();
    let cost = hv.cost;
    let mut t = Tracer::new();
    let mut calib = Calib::default();
    let mut out = Outcome::default();
    let mut op_ns = Vec::new();
    let mut first_pass = LayerCounts::default();
    let mut mirror_sim = Vec::new();
    let ops = run_cycles(half, n, n, |i| {
        let module = &bed.modules[i % n];
        t.set_op(i as u64);
        let op = t.begin("op");
        let caps: Vec<probe::Capture> = ids
            .iter()
            .map(|&vm| probe::capture(&mut t, hv, vm, module))
            .collect();
        let extracted: Vec<(usize, &modchecker::ExtractedModule)> = caps
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.module.as_ref().ok().map(|m| (i, m)))
            .collect();
        // Dom0's pairwise work is charged to a ledger session, as
        // `check_pool` does.
        let mut ledger = mc_vmi::VmiSession::attach(hv, ids[extracted[0].0]).expect("ledger");
        ledger.take_elapsed();
        let mut scratch = PairScratch::new();
        let mut matrix = Vec::new();
        for a in 0..extracted.len() {
            for b in (a + 1)..extracted.len() {
                let s = t.begin("checker.compare_pair");
                let o = compare_pair_with(
                    extracted[a].1,
                    extracted[b].1,
                    Some(&mut ledger),
                    &mut scratch,
                )
                .expect("one digest algorithm");
                t.end(s);
                matrix.push((extracted[a].0, extracted[b].0, o));
            }
        }
        let pair_sim = ledger.take_elapsed().as_nanos();
        // The vote (benchmark glue, unattributed).
        let mut errors = 0;
        for idx in 0..ids.len() {
            let mut successes = 0;
            let mut parts: Vec<PartId> = Vec::new();
            for (x, y, o) in &matrix {
                if *x == idx || *y == idx {
                    if o.matches() {
                        successes += 1;
                    } else {
                        parts.extend(o.mismatched.iter().cloned());
                    }
                }
            }
            parts.sort();
            parts.dedup();
            let clean = successes * 2 > extracted.len() - 1;
            let ok = match expect_for(&bed, module, idx) {
                Some(want) => !clean && parts == want,
                None => clean,
            };
            errors += u64::from(!ok);
        }
        t.end(op);
        op_ns.push(t.duration_ns(op));
        out.verdicts_checked += ids.len() as u64;
        out.verdict_errors += errors;
        if extracted.len() != ids.len() {
            out.failed += 1;
        }
        if i < n {
            let op_sim: u64 = caps
                .iter()
                .map(|c| c.searcher_ns + c.parser_ns + c.checker_ns)
                .sum::<u64>()
                + pair_sim;
            mirror_sim.push(op_sim);
            let c = &mut first_pass;
            for cap in &caps {
                c.reads += cap.stats.reads;
                c.page_walks += cap.stats.page_walks;
                c.translate_hits += cap.stats.translate_cache_hits;
                c.retries += cap.stats.retries;
                c.capture_sim_ns += cap.searcher_ns;
                c.parse_sim_ns += cap.parser_ns;
                c.checker_sim_ns += cap.checker_ns;
            }
            c.checker_sim_ns += pair_sim;
            c.pairs += matrix.len() as u64;
            for (_, _, o) in &matrix {
                c.slots += o.slots_adjusted as u64;
                c.residual += o.residual_diffs as u64;
            }
        }
        calib.probe(&mut t, extracted[0].1, extracted[1].1);
    });
    out.attempted = ops as u64;

    let totals = t.totals();
    #[allow(clippy::cast_precision_loss)]
    let per_op_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |v| v.2 as f64 / 1e3 / ops as f64)
    };
    #[allow(clippy::cast_precision_loss)]
    let op_ms: Vec<f64> = op_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let traced_p50 = median(&op_ms);
    let child_us = [
        "vmi.attach",
        "searcher.find_ref",
        "vmi.capture",
        "parts.extract",
        "checker.compare_pair",
    ]
    .iter()
    .map(|n| per_op_us(n))
    .sum::<f64>();
    #[allow(clippy::cast_precision_loss)]
    let op_us = op_ns.iter().sum::<u64>() as f64 / 1e3 / ops as f64;

    let c = &first_pass;
    #[allow(clippy::cast_precision_loss)]
    let per = |v: u64| v as f64 / n as f64;
    let m = &mut out.metrics;
    m.put(
        "vmi.capture_host_us",
        per_op_us("vmi.attach") + per_op_us("searcher.find_ref") + per_op_us("vmi.capture"),
        "us",
    );
    m.put("vmi.capture_sim_ms", per(c.capture_sim_ns) / 1e6, "ms");
    m.put("vmi.reads", per(c.reads), "count");
    m.put("vmi.page_walks", per(c.page_walks), "count");
    m.put("vmi.translate_cache_hits", per(c.translate_hits), "count");
    m.put("vmi.retries", per(c.retries), "count");
    m.put("parts.extract_host_us", per_op_us("parts.extract"), "us");
    m.put("parts.parse_sim_ms", per(c.parse_sim_ns) / 1e6, "ms");
    m.put(
        "checker.compare_pair_host_us",
        per_op_us("checker.compare_pair"),
        "us",
    );
    m.put("checker.pairs", per(c.pairs), "count");
    m.put("checker.slots_adjusted", per(c.slots), "count");
    m.put("checker.residual_diffs", per(c.residual), "count");
    m.put("checker.sim_ms", per(c.checker_sim_ns) / 1e6, "ms");
    m.put("digest.md5_ns_per_byte", calib.md5_ns_per_byte(), "ns/B");
    for (name, v) in calib.model_ratios(&cost) {
        m.put(name, v, "ratio");
    }
    m.put("pool.unattributed_host_us", op_us - child_us, "us");
    m.put("trace.op_host_ms_p50", traced_p50, "ms");
    m.put("trace.overhead_ms", traced_p50 - untraced_p50, "ms");
    // The mirror must charge exactly what `check_pool` charged.
    assert_eq!(
        mirror_sim, untraced.first_cycle_sim_ns,
        "the traced mirror must reproduce check_pool's simulated time"
    );
    out.notes.push(format!(
        "scan_paper traced: {ops} ops; mirror reproduces check_pool's simulated time exactly; \
         untraced p50 {untraced_p50:.3} ms, traced {traced_p50:.3} ms"
    ));
    crate::finish_trace(cfg, "scan_paper", &t, untraced, out)
}

#[derive(Debug, Default)]
struct LayerCounts {
    reads: u64,
    page_walks: u64,
    translate_hits: u64,
    retries: u64,
    capture_sim_ns: u64,
    parse_sim_ns: u64,
    checker_sim_ns: u64,
    pairs: u64,
    slots: u64,
    residual: u64,
}
