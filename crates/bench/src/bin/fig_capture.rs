//! FIG-CAPTURE — the capture fast path under a steady-state scan.
//!
//! PR 3 collapsed the checker to O(t) canonical voting, leaving the scan
//! capture-bound: most of the remaining per-round cost is walking the
//! loaded-module list and copying module images out of guest memory. This
//! figure measures what the capture fast path (DESIGN.md §14 — per-session
//! translate caching, scatter-gather stable reads, arena buffers, and
//! page-granular cache refreshes keyed by page write-generations) buys on the
//! workload that dominates a monitoring fleet: warm rounds where almost
//! nothing changed.
//!
//! Two phases over the same t=16 pool carrying a 128 KiB module:
//!
//! * **cold** — one uncached sweep, fast path on vs off. Isolates the
//!   scatter-gather win: one translate walk per page and one batched copy
//!   per physical run vs the paper's page-by-page loop.
//! * **steady** — rounds where every VM dirties exactly one page (the
//!   same bytes are re-written, so write-generations move but verdicts
//!   cannot). Fast side: warm [`CaptureCache`] + fast path — each round
//!   re-reads one page per VM (partial refresh). Paper side: the uncached
//!   page-by-page recapture loop the prototype describes.
//!
//! Shape claims verified:
//! * verdicts are byte-identical across fast-path on/off (times and VMI
//!   counters stripped — those are *supposed* to move);
//! * the fast side actually exercised the new machinery (vectored reads,
//!   translate-cache hits, partial refreshes > 0; legacy side all zero);
//! * steady-state capture speedup is at least 4× (the gate).
//!
//! Emits `BENCH_capture.json` (`--out <PATH>` overrides) plus the usual
//! CSV block.

use mc_bench::print_csv;
use mc_guest::build_cloud_with_modules;
use mc_hypervisor::{AddressWidth, Hypervisor, VmId};
use mc_pe::corpus::ModuleBlueprint;
use modchecker::{CaptureCache, CheckConfig, ModChecker};

const MODULE: &str = "target.sys";
const MODULE_KB: usize = 128;
const POOL: usize = 16;

struct Row {
    phase: &'static str,
    capture_ms: f64,
    total_ms: f64,
    speedup: f64,
}

impl std::fmt::Display for Row {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{},{:.4},{:.4},{:.2}",
            self.phase, self.capture_ms, self.total_ms, self.speedup
        )
    }
}

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn arg_str(key: &str, default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

fn cloud() -> (Hypervisor, Vec<mc_guest::GuestOs>, Vec<VmId>) {
    let mut hv = Hypervisor::new();
    let w = AddressWidth::W32;
    // The scan target plus two bystander modules so the list walk does
    // realistic work before it finds the entry it wants.
    let bps = vec![
        ModuleBlueprint::new("hal.dll", w, 16 * 1024),
        ModuleBlueprint::new(MODULE, w, MODULE_KB * 1024),
        ModuleBlueprint::new("ndis.sys", w, 12 * 1024),
    ];
    let guests = build_cloud_with_modules(&mut hv, POOL, w, &bps).expect("cloud builds");
    let ids = guests.iter().map(|g| g.vm).collect();
    (hv, guests, ids)
}

fn checker(fast: bool) -> ModChecker {
    ModChecker::with_config(CheckConfig {
        fast_capture: fast,
        ..CheckConfig::default()
    })
}

/// Report JSON with the fields the fast path is *allowed* to move
/// (simulated times, introspection counters) stripped — what must remain
/// byte-identical across fast-path on/off.
fn verdict_bytes(report: &modchecker::PoolCheckReport) -> String {
    let mut v = report.to_json();
    if let serde_json::Value::Object(ref mut obj) = v {
        obj.retain(|(k, _)| k != "times_ms" && k != "vmi");
    }
    serde_json::to_string_pretty(&v).expect("serializes")
}

/// Re-writes one byte per VM with a fixed value: after the first write the
/// content is stable round to round, but every write moves the page's
/// generation stamp — the "one dirty page per module per round" shape a
/// busy-but-benign guest produces.
fn dirty_one_page(hv: &mut Hypervisor, guests: &[mc_guest::GuestOs]) {
    let offset = 17 * 4096 + 128; // page 17 of the 32-page image
    for g in guests {
        g.patch_module(hv, MODULE, offset, &[0x90]).expect("patch");
    }
}

fn main() {
    let smoke = flag("--smoke");
    let out = arg_str("--out", "BENCH_capture.json");
    let rounds = if smoke { 3 } else { 6 };

    // ---- Cold phase: one uncached sweep, fast on vs off. --------------
    let (hv, _guests, ids) = cloud();
    let cold_legacy = checker(false).check_pool(&hv, &ids, MODULE).expect("scan");
    let cold_fast = checker(true).check_pool(&hv, &ids, MODULE).expect("scan");
    assert_eq!(
        verdict_bytes(&cold_legacy),
        verdict_bytes(&cold_fast),
        "fast path changed a cold verdict"
    );
    assert!(cold_legacy.all_clean() && cold_fast.all_clean());
    assert_eq!(cold_legacy.vmi.vectored_reads, 0);
    assert!(cold_fast.vmi.vectored_reads > 0, "fast path never vectored");
    assert!(
        cold_fast.vmi.translate_cache_hits > 0,
        "translate cache never hit"
    );
    assert!(
        cold_fast.vmi.page_walks < cold_legacy.vmi.page_walks,
        "fast path did not reduce page-table walks"
    );

    // ---- Steady phase: warm cache + fast path vs the paper's loop. ----
    // Two identically-built clouds so neither side sees the other's
    // generation bumps.
    let (mut hv_fast, guests_fast, ids_fast) = cloud();
    let (mut hv_paper, guests_paper, ids_paper) = cloud();
    let fast_checker = checker(true);
    let paper_checker = checker(false);
    let mut cache = CaptureCache::new();
    // Warm the cache (and the first write of the fixed byte) outside the
    // measured window.
    fast_checker
        .check_pool_with_cache(&hv_fast, &ids_fast, MODULE, &mut cache)
        .expect("warmup");
    dirty_one_page(&mut hv_fast, &guests_fast);
    dirty_one_page(&mut hv_paper, &guests_paper);
    fast_checker
        .check_pool_with_cache(&hv_fast, &ids_fast, MODULE, &mut cache)
        .expect("warmup");
    paper_checker
        .check_pool(&hv_paper, &ids_paper, MODULE)
        .expect("warmup");

    let mut fast_capture_ms = 0.0;
    let mut fast_total_ms = 0.0;
    let mut paper_capture_ms = 0.0;
    let mut paper_total_ms = 0.0;
    for _ in 0..rounds {
        dirty_one_page(&mut hv_fast, &guests_fast);
        dirty_one_page(&mut hv_paper, &guests_paper);
        let fast = fast_checker
            .check_pool_with_cache(&hv_fast, &ids_fast, MODULE, &mut cache)
            .expect("steady round");
        let paper = paper_checker
            .check_pool(&hv_paper, &ids_paper, MODULE)
            .expect("steady round");
        assert_eq!(
            verdict_bytes(&fast),
            verdict_bytes(&paper),
            "steady-state verdicts diverged between fast and paper paths"
        );
        assert!(fast.all_clean(), "same-byte rewrites must stay clean");
        fast_capture_ms += fast.times.searcher.as_millis_f64();
        fast_total_ms += fast.times.total().as_millis_f64();
        paper_capture_ms += paper.times.searcher.as_millis_f64();
        paper_total_ms += paper.times.total().as_millis_f64();
    }
    let r = f64::from(u32::try_from(rounds).expect("small"));
    fast_capture_ms /= r;
    fast_total_ms /= r;
    paper_capture_ms /= r;
    paper_total_ms /= r;

    let stats = cache.stats();
    assert!(
        stats.partial_hits >= (rounds * POOL) as u64,
        "every measured round should partially refresh every VM (got {} partial hits)",
        stats.partial_hits
    );
    assert_eq!(stats.invalidations, 0, "nothing changed shape");
    assert!(
        stats.pages_reused > stats.pages_refreshed,
        "a one-dirty-page round must reuse more pages than it refreshes"
    );

    let cold_speedup =
        cold_legacy.times.searcher.as_millis_f64() / cold_fast.times.searcher.as_millis_f64();
    let steady_speedup = paper_capture_ms / fast_capture_ms;
    let rows = vec![
        Row {
            phase: "cold_paper",
            capture_ms: cold_legacy.times.searcher.as_millis_f64(),
            total_ms: cold_legacy.times.total().as_millis_f64(),
            speedup: 1.0,
        },
        Row {
            phase: "cold_fast",
            capture_ms: cold_fast.times.searcher.as_millis_f64(),
            total_ms: cold_fast.times.total().as_millis_f64(),
            speedup: cold_speedup,
        },
        Row {
            phase: "steady_paper",
            capture_ms: paper_capture_ms,
            total_ms: paper_total_ms,
            speedup: 1.0,
        },
        Row {
            phase: "steady_fast",
            capture_ms: fast_capture_ms,
            total_ms: fast_total_ms,
            speedup: steady_speedup,
        },
    ];

    print_csv("fig_capture", "phase,capture_ms,total_ms,speedup", &rows);

    let json = serde_json::json!({
        "figure": "fig_capture",
        "smoke": smoke,
        "pool": POOL,
        "module_kb": MODULE_KB,
        "rounds": rounds,
        "rows": rows.iter().map(|row| serde_json::json!({
            "phase": row.phase,
            "capture_ms": row.capture_ms,
            "total_ms": row.total_ms,
            "speedup": row.speedup,
        })).collect::<Vec<_>>(),
        "capture_cold_speedup": cold_speedup,
        "capture_steady_speedup": steady_speedup,
        "capture_partial_hits": stats.partial_hits,
        "capture_pages_refreshed": stats.pages_refreshed,
        "capture_pages_reused": stats.pages_reused,
    });
    let rendered = serde_json::to_string_pretty(&json).expect("render BENCH_capture.json");
    std::fs::write(&out, rendered + "\n").expect("write BENCH_capture.json");
    println!("\nwrote {out}");

    println!("\nFIG-CAPTURE shape checks:");
    println!(
        "  cold:   {:.3} ms -> {:.3} ms ({cold_speedup:.2}x)",
        cold_legacy.times.searcher.as_millis_f64(),
        cold_fast.times.searcher.as_millis_f64(),
    );
    println!(
        "  steady: {paper_capture_ms:.3} ms -> {fast_capture_ms:.3} ms ({steady_speedup:.2}x)"
    );
    assert!(
        cold_speedup > 1.0,
        "scatter-gather must beat the page loop even cold ({cold_speedup:.2}x)"
    );
    assert!(
        steady_speedup >= 4.0,
        "steady-state capture speedup {steady_speedup:.2}x is below the 4x gate"
    );

    println!(
        "\nFIG-CAPTURE reproduced: warm rounds re-read one page per VM, verdicts byte-identical."
    );
}
