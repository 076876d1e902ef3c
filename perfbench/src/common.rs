//! Shared plumbing: run settings, statistics, the result line.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};

/// Settings of one benchmark invocation.
#[derive(Clone, Debug)]
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    /// Where the traced run writes its spans.
    pub out_dir: std::path::PathBuf,
}

impl RunCfg {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Set-up repeats at least this often, and until [`SETUP_MIN_S`] have
/// passed (cheap set-ups repeat more, so their median is steady).
pub const SETUP_REPS: usize = 5;
pub const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 40;

/// Times `build` repeatedly and returns the last product plus the median
/// set-up time in seconds.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::new();
    let mut last = None;
    while secs.len() < SETUP_REPS
        || (secs.iter().sum::<f64>() < SETUP_MIN_S && secs.len() < SETUP_MAX_REPS)
    {
        drop(last.take());
        probe_speed();
        let t0 = Instant::now();
        let bed = build();
        secs.push(t0.elapsed().as_secs_f64());
        last = Some(bed);
    }
    (last.expect("at least one set-up"), median(&secs))
}

/// The benchmark's own seeded stream for input generation.
#[derive(Clone, Debug)]
pub struct Rng(StdRng);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(StdRng::seed_from_u64(seed ^ 0x6D63_6265_6E63_6821))
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        self.0.random_range(0..n)
    }

    /// Uniform in `[0, 1)`.
    #[allow(clippy::cast_precision_loss)]
    pub fn unit(&mut self) -> f64 {
        (self.0.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Scales every blueprint's `.text` size by a seeded factor in ±2%, so
/// simulated times move a little from seed to seed.
pub fn jitter_text_sizes(
    blueprints: Vec<mc_pe::corpus::ModuleBlueprint>,
    rng: &mut Rng,
) -> Vec<mc_pe::corpus::ModuleBlueprint> {
    blueprints
        .into_iter()
        .map(|mut bp| {
            let factor = 1.0 + 0.04 * (rng.unit() - 0.5);
            #[allow(
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss,
                clippy::cast_precision_loss
            )]
            let size = ((bp.text_size as f64 * factor) as usize / 16) * 16;
            bp.text_size = size.max(16);
            bp
        })
        .collect()
}

/// Nearest-rank percentile (`pct` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let rank = ((pct / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

pub fn mean(samples: &[f64]) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let n = samples.len().max(1) as f64;
    samples.iter().sum::<f64>() / n
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Ordered `name → (value, unit)` list printed in the result line.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(
            !self.0.iter().any(|(n, _, _)| *n == name),
            "metric {name} recorded twice"
        );
        self.0.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| *n == name).map(|m| m.1)
    }
}

/// End-to-end metrics in host time, and in host-time rates.
const HOST_TIMES: [&str; 2] = ["setup_s", "op_host_ms_p50"];
const HOST_RATES: [&str; 2] = ["checked_mb_per_host_s", "queries_per_host_s"];

/// What a workload reports back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Verdicts that disagreed with the workload's ground truth.
    pub verdict_errors: u64,
    /// Verdicts checked against ground truth.
    pub verdicts_checked: u64,
    pub metrics: Metrics,
    /// Human-readable lines for stderr (sample counts, oracle notes).
    pub notes: Vec<String>,
    /// Simulated ns of each op of the first cycle (what a traced mirror
    /// must reproduce exactly).
    pub first_cycle_sim_ns: Vec<u64>,
    /// p90 host ms per op of an untraced run (a per-layer figure: it is
    /// too noisy to hold an end-to-end bound).
    pub host_ms_p90: f64,
}

impl Outcome {
    /// Scales the end-to-end host times by `speed` (see [`speed_factor`])
    /// and host rates by its inverse; returns the values as measured.
    pub fn scale_to_reference_speed(&mut self, speed: f64) -> String {
        let mut measured = Vec::new();
        for (name, value, _) in &mut self.metrics.0 {
            let k = if HOST_TIMES.contains(name) {
                speed
            } else if HOST_RATES.contains(name) {
                1.0 / speed
            } else {
                continue;
            };
            measured.push(format!("{name} {value:.6}"));
            *value *= k;
        }
        measured.join(", ")
    }

    pub fn correct(&self) -> bool {
        self.verdict_errors == 0 && self.verdicts_checked > 0
    }

    /// Records the end-to-end metrics every workload computes the same
    /// way (the first five, in print order). Call after `attempted`,
    /// `failed` and the oracle counters are final.
    #[allow(clippy::cast_precision_loss)]
    pub fn put_common(&mut self, setup_s: f64, host_ms: &[f64]) {
        self.host_ms_p90 = percentile(host_ms, 90.0);
        let accuracy = 1.0 - self.verdict_errors as f64 / self.verdicts_checked.max(1) as f64;
        let completed = 1.0 - self.failed as f64 / self.attempted.max(1) as f64;
        let m = &mut self.metrics;
        m.put("setup_s", setup_s, "s");
        m.put("verdict_accuracy", accuracy, "share");
        m.put("completed_share", completed, "share");
        m.put("rss_peak_mb", rss_peak_mb(), "MB");
        m.put("op_host_ms_p50", median(host_ms), "ms");
    }
}

/// Formats a finite `f64` as JSON with every digit kept.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// The single-line result object.
pub fn result_line(o: &Outcome) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct(),
        o.attempted.max(1),
        o.failed
    );
    for (i, (name, value, unit)) in o.metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(*value)
        );
    }
    out.push_str("}}");
    out
}

/// Runs `op(i)` back to back until `budget` has elapsed and at least
/// `min_ops` ops ran, finishing the current cycle of `cycle_len` ops so
/// every op of a cycle is sampled equally often. Returns the number of
/// ops run (a whole number of cycles).
pub fn run_cycles(
    budget: Duration,
    cycle_len: usize,
    min_ops: usize,
    mut op: impl FnMut(usize),
) -> usize {
    let start = Instant::now();
    let mut i = 0usize;
    loop {
        if i.is_multiple_of(cycle_len) {
            probe_speed();
        }
        op(i);
        i += 1;
        if i.is_multiple_of(cycle_len) && i >= min_ops && start.elapsed() >= budget {
            return i;
        }
    }
}

/// The host speed at which end-to-end host times are reported: one probe
/// pass taking this long. On the reference machine, a shared 2-core VM,
/// the same work ran up to 2× slower for stretches of minutes, with no
/// steal time to show for it, and integer loops (MD5 too) slowed by about
/// the same factor as the ops.
pub const PROBE_REF_MS: f64 = 1.0;

thread_local! {
    /// The probe's buffer and the duration of every pass made, in ms.
    static PROBE: RefCell<(Vec<u64>, Vec<f64>)> = RefCell::new((vec![1; 1 << 17], Vec::new()));
}

/// Times one probe pass: SplitMix64-style mixing over a 1 MiB buffer,
/// four times. It is the benchmark's own code, so no change to the program
/// moves it. Called between set-ups and between op cycles, never inside a
/// timed op.
pub fn probe_speed() {
    PROBE.with(|p| {
        let (buf, passes) = &mut *p.borrow_mut();
        let t0 = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..4 {
            for v in std::hint::black_box(buf.iter_mut()) {
                x = x.wrapping_add(*v ^ 0x9E37_79B9_7F4A_7C15);
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *v = x ^ (x >> 31);
            }
        }
        std::hint::black_box(x);
        passes.push(t0.elapsed().as_secs_f64() * 1e3);
    });
}

/// `PROBE_REF_MS` over this run's median probe pass: a host time times
/// this factor is the time at reference speed.
pub fn speed_factor() -> f64 {
    PROBE.with(|p| {
        let passes = &p.borrow().1;
        if passes.is_empty() {
            1.0
        } else {
            PROBE_REF_MS / median(passes)
        }
    })
}
