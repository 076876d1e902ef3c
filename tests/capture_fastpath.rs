//! Capture fast-path equivalence suite (DESIGN.md §14).
//!
//! The fast path — per-session translate caching, scatter-gather stable
//! reads, arena-backed buffers, and generation-keyed page refreshes — is
//! a pure performance layer: it must never move a verdict. This suite
//! pins that claim from four directions:
//!
//! 1. **Header reads ride the translate cache.** `read_ptr` / `read_u16`
//!    / `read_u32` against the same page cost one page-table walk total
//!    on a fast session (satellite regression for `VmiStats.page_walks`).
//! 2. **Fault plans don't break equivalence.** Torn-page and paged-out
//!    injection change *when* bytes arrive, never *which* bytes: reports
//!    stay byte-identical across fast-path on/off (simulated times and
//!    VMI counters stripped — those are supposed to move).
//! 3. **A partially refreshed cache votes like a cold scan.** After
//!    rounds of page-granular refreshes, the cached report equals a fresh
//!    uncached scan's, with no full recapture along the way.
//! 4. **Whole-pool byte-identity** with the fast path on and off, on
//!    clean and infected pools.

use mc_hypervisor::{AddressWidth, FaultPlan, PAGE_SIZE};
use mc_pe::corpus::ModuleBlueprint;
use mc_vmi::VmiSession;
use modchecker::{CaptureCache, CheckConfig, ModChecker, PoolCheckReport};
use modchecker_repro::testbed::Testbed;

fn bed(n: usize) -> Testbed {
    let w = AddressWidth::W32;
    Testbed::cloud_with(
        n,
        w,
        &[
            ModuleBlueprint::new("hal.dll", w, 16 * 1024),
            ModuleBlueprint::new("ndis.sys", w, 12 * 1024),
        ],
    )
}

fn checker(fast: bool) -> ModChecker {
    ModChecker::with_config(CheckConfig {
        fast_capture: fast,
        ..CheckConfig::default()
    })
}

/// Report JSON minus the fields the fast path is allowed to move.
fn verdict_bytes(report: &PoolCheckReport) -> String {
    let mut v = report.to_json();
    if let serde_json::Value::Object(ref mut obj) = v {
        obj.retain(|(k, _)| k != "times_ms" && k != "vmi");
    }
    serde_json::to_string_pretty(&v).expect("report serializes")
}

// ---------------------------------------------------------------------
// 1. Satellite: header-word reads through the translate cache.
// ---------------------------------------------------------------------

#[test]
fn header_word_reads_share_one_translate_walk_per_page() {
    let bed = bed(2);
    let module = bed.guests[0].find_module("hal.dll").expect("hal.dll");

    // Fast session: the first touch of the header page walks the page
    // tables once; every later read_ptr/read_u16/read_u32 on that page is
    // a translate-cache hit.
    let mut fast = VmiSession::attach(&bed.hv, bed.vm_ids[0])
        .expect("attach")
        .with_fast_capture();
    fast.read_u16(module.base).expect("e_magic");
    let e_lfanew = u64::from(fast.read_u32(module.base + 0x3c).expect("e_lfanew"));
    fast.read_u32(module.base + e_lfanew).expect("PE sig");
    fast.read_ptr(module.base + 8).expect("header word");
    let fs = fast.stats();
    assert_eq!(
        fs.page_walks, 1,
        "four header reads on one page must cost exactly one walk"
    );
    assert_eq!(fs.translate_cache_hits, 3, "the other three reads hit");

    // Legacy session: the paper's prototype re-translates per access.
    let mut legacy = VmiSession::attach(&bed.hv, bed.vm_ids[0]).expect("attach");
    legacy.read_u16(module.base).expect("e_magic");
    legacy.read_u32(module.base + 0x3c).expect("e_lfanew");
    legacy.read_ptr(module.base + 8).expect("header word");
    let ls = legacy.stats();
    assert_eq!(ls.page_walks, 3, "legacy pays one walk per header read");
    assert_eq!(ls.translate_cache_hits, 0);
    assert_eq!(ls.vectored_reads, 0);
}

// ---------------------------------------------------------------------
// 2. Fault plans: torn + paged-out, fast path on/off byte-identity.
// ---------------------------------------------------------------------

#[test]
fn verdicts_are_byte_identical_across_fast_path_under_torn_and_paged_out_faults() {
    // Rates are chosen so *both* paths fully ride the faults out: the
    // legacy page loop draws a fault decision per page (plus a stable
    // re-read per page), so hot rates can exhaust its retry budget and
    // fail a capture the batched path completes — an honest degradation
    // difference, but not what this test pins. At these rates every
    // capture succeeds on both paths and the reports must be identical.
    let mut plan = FaultPlan::none(4242);
    plan.torn_rate = 0.08;
    plan.paged_out_rate = 0.08;
    plan.paged_out_attempts = 2;

    // One real infection under recoverable fault load: both paths must
    // converge on the same bytes, flag the same victim, and render the
    // same report.
    let mut bed = bed(6);
    bed.guests[3]
        .patch_module(&mut bed.hv, "hal.dll", 0x1007, &[0xCC])
        .expect("patch");
    bed.hv.inject_fault_plan(plan);

    let legacy = checker(false)
        .check_pool(&bed.hv, &bed.vm_ids, "hal.dll")
        .expect("legacy scan");
    let fast = checker(true)
        .check_pool(&bed.hv, &bed.vm_ids, "hal.dll")
        .expect("fast scan");
    assert_eq!(
        verdict_bytes(&legacy),
        verdict_bytes(&fast),
        "fault injection broke fast-path verdict identity"
    );
    let suspects: Vec<&str> = fast.suspects().map(|v| v.vm_name.as_str()).collect();
    assert_eq!(suspects, vec!["dom4"]);
    assert_eq!(fast.scanned, 6, "faults must be ridden out, not eaten");
    // The stable scatter-gather read must have detected (and healed) torn
    // pages rather than letting them masquerade as integrity mismatches.
    assert!(fast.vmi.vectored_reads > 0);
    assert_eq!(legacy.vmi.vectored_reads, 0);
}

#[test]
fn cached_rescans_keep_equivalence_under_fault_load() {
    // The partial-refresh path reads single pages under the same fault
    // plans the full capture rides out; its verdicts must match a fresh
    // uncached scan's exactly.
    let mut plan = FaultPlan::none(99);
    plan.torn_rate = 0.15;
    plan.paged_out_rate = 0.15;
    let mut bed = bed(5);
    let fast = checker(true);
    let mut cache = CaptureCache::new();
    fast.check_pool_with_cache(&bed.hv, &bed.vm_ids, "hal.dll", &mut cache)
        .expect("warmup");

    bed.guests[2]
        .patch_module(&mut bed.hv, "hal.dll", 0x2011, &[0x90, 0x90])
        .expect("patch");
    bed.hv.inject_fault_plan(plan);

    let cached = fast
        .check_pool_with_cache(&bed.hv, &bed.vm_ids, "hal.dll", &mut cache)
        .expect("cached rescan");
    let uncached = fast
        .check_pool(&bed.hv, &bed.vm_ids, "hal.dll")
        .expect("uncached rescan");
    assert_eq!(
        verdict_bytes(&cached),
        verdict_bytes(&uncached),
        "partial refresh diverged from a fresh capture under faults"
    );
    let suspects: Vec<&str> = cached.suspects().map(|v| v.vm_name.as_str()).collect();
    assert_eq!(suspects, vec!["dom3"]);
    assert!(
        cache.stats().partial_hits >= 1,
        "the victim's rescan should have taken the partial-refresh path"
    );
}

// ---------------------------------------------------------------------
// 3. A partially refreshed cache votes like a cold scan.
// ---------------------------------------------------------------------

#[test]
fn partially_refreshed_cache_votes_like_a_cold_scan() {
    let mut bed = bed(5);
    let fast = checker(true);
    let mut cache = CaptureCache::new();
    fast.check_pool_with_cache(&bed.hv, &bed.vm_ids, "hal.dll", &mut cache)
        .expect("warmup");
    let warm = cache.stats();
    assert_eq!(warm.misses, 5, "the warmup captures every VM once");

    // Rounds of guest writes, each dirtying one page somewhere in the
    // pool: an infection on dom2 (page 2, then page 1 on top of it), a
    // same-bytes rewrite on dom4 (generations move, content does not),
    // and a second infection on dom2's header page. Each rescan must
    // refresh pages in place and still vote like a cold uncached scan.
    let writes: [(usize, u64, &[u8]); 4] = [
        (1, 2 * PAGE_SIZE as u64 + 5, &[0xAB]),
        (1, PAGE_SIZE as u64 + 9, &[0xCC, 0xCC]),
        (3, 3 * PAGE_SIZE as u64, &[0x00]),
        (1, 0x40, &[0x11, 0x22]),
    ];
    for (round, &(guest, offset, bytes)) in writes.iter().enumerate() {
        let bytes = if guest == 3 {
            // Re-write what is already there: the generation moves, the
            // content does not.
            let base = bed.guests[guest]
                .find_module("hal.dll")
                .expect("hal.dll")
                .base;
            let mut same = vec![0u8; bytes.len()];
            bed.hv
                .vm(bed.vm_ids[guest])
                .expect("vm")
                .read_virt(base + offset, &mut same)
                .expect("read back");
            same
        } else {
            bytes.to_vec()
        };
        bed.guests[guest]
            .patch_module(&mut bed.hv, "hal.dll", offset, &bytes)
            .expect("patch");
        let cached = fast
            .check_pool_with_cache(&bed.hv, &bed.vm_ids, "hal.dll", &mut cache)
            .expect("cached rescan");
        let cold = fast
            .check_pool(&bed.hv, &bed.vm_ids, "hal.dll")
            .expect("cold scan");
        assert_eq!(
            verdict_bytes(&cached),
            verdict_bytes(&cold),
            "round {round}: the refreshed cache diverged from a cold scan"
        );
        let suspects: Vec<&str> = cached.suspects().map(|v| v.vm_name.as_str()).collect();
        assert_eq!(suspects, vec!["dom2"], "round {round}");
    }

    let stats = cache.stats();
    assert_eq!(
        stats.partial_hits,
        warm.partial_hits + writes.len() as u64,
        "every write is one partial hit"
    );
    assert_eq!(
        stats.misses, warm.misses,
        "no write forced a full recapture"
    );
    assert_eq!(stats.invalidations, 0, "shape never changed");
    assert_eq!(stats.pages_refreshed, writes.len() as u64);
}

// ---------------------------------------------------------------------
// 4. Whole-pool byte-identity, fast path on vs off.
// ---------------------------------------------------------------------

#[test]
fn pool_reports_are_byte_identical_with_fast_capture_on_and_off() {
    // Clean pool and an infected pool, both rendered with the fast path
    // on and off: stripped of times and VMI counters, the JSON must be
    // byte-for-byte identical.
    for infect in [false, true] {
        let mut bed = bed(6);
        if infect {
            bed.guests[4]
                .patch_module(&mut bed.hv, "ndis.sys", 0x1040, &[0xEB, 0xFE])
                .expect("patch");
        }
        let legacy = checker(false)
            .check_pool(&bed.hv, &bed.vm_ids, "ndis.sys")
            .expect("legacy");
        let fast = checker(true)
            .check_pool(&bed.hv, &bed.vm_ids, "ndis.sys")
            .expect("fast");
        assert_eq!(
            verdict_bytes(&legacy),
            verdict_bytes(&fast),
            "infect={infect}: fast path moved a report byte"
        );
        assert!(fast.vmi.translate_cache_hits > 0);
        assert!(fast.vmi.page_walks < legacy.vmi.page_walks);
    }
}
