//! Wall-clock cost of the checker over one cold `hal.dll` unit. The
//! canonical pass: a canonical-mode `check_pool_with_cache` of 8 VMs on an
//! empty capture cache, which captures, parses and canonicalizes every
//! VM's copy.
//!
//! * `checker/canonical_forms_unit` — a clean unit: every capture
//!   normalizes to the same `.text`.
//! * `checker/canonical_forms_all_distinct` — every capture's `.text`
//!   differs in its last byte, the worst case for the per-scan section
//!   grouping: each lookup compares against every group to its last byte,
//!   and every group streams its own digest.
//!
//! Each iteration runs 4 cold scans.
//!
//! * `checker/pairwise_unit` — the paper's Algorithm 2 op: one uncached,
//!   default-config `check_pool` of a clean 15-VM unit, every pair of
//!   captures compared. Each iteration runs one scan.
//! * `checker/pool_cycle` — one checker cycles uncached `check_pool` scans
//!   through the 11-module standard corpus over a clean 15-VM cloud, as
//!   `check_all_modules` does after its list scan. Each iteration runs one
//!   cycle, after one warm-up cycle; the bench also prints the process's
//!   minor page faults per scan (field 10 of `/proc/self/stat`, Linux
//!   only), the kernel's share of a scan that allocates its captures.
//! * `checker/pool_cycle_canonical` — the same cycle with a second checker
//!   in canonical mode, run right after `checker/pool_cycle` in the same
//!   process, and its minor faults per scan beside the pairwise figure.
//! * `checker/compare_pair/{clean,inline_hook}` — the public, ungrouped
//!   `compare_pair_with` on one 128 KiB `hal.dll` pair: two clean captures
//!   at distinct bases, and a clean capture against an inline-hooked one.
//!   Each iteration compares the pair 32 times through one scratch arena.
//!
//! ```text
//! cargo bench -p mc-bench --bench checker
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mc_attacks::Technique;
use mc_hypervisor::{AddressWidth, VmId};
use mc_pe::corpus::{standard_corpus, ModuleBlueprint};
use mc_vmi::VmiSession;
use modchecker::{
    compare_pair_with, CaptureCache, CheckConfig, CompareStrategy, ExtractedModule, ModChecker,
    ModuleSearcher, PairScratch,
};
use modchecker_repro::testbed::Testbed;

const MODULE: &str = "hal.dll";

fn unit() -> Testbed {
    let width = AddressWidth::W32;
    Testbed::cloud_with(8, width, &[ModuleBlueprint::new(MODULE, width, 128 * 1024)])
}

fn bench_cold_unit(c: &mut Criterion, name: &str, bed: &Testbed) {
    let checker = ModChecker::with_config(CheckConfig {
        compare: CompareStrategy::Canonical,
        ..CheckConfig::default()
    });
    c.bench_function(name, |b| {
        b.iter(|| {
            for _ in 0..4 {
                black_box(
                    checker
                        .check_pool_with_cache(
                            &bed.hv,
                            &bed.vm_ids,
                            MODULE,
                            &mut CaptureCache::new(),
                        )
                        .expect("cold scan"),
                );
            }
        });
    });
}

fn bench_pairwise_unit(c: &mut Criterion) {
    let width = AddressWidth::W32;
    let bed = Testbed::cloud_with(
        15,
        width,
        &[ModuleBlueprint::new(MODULE, width, 128 * 1024)],
    );
    let checker = ModChecker::new();
    c.bench_function("checker/pairwise_unit", |b| {
        b.iter(|| {
            black_box(
                checker
                    .check_pool(&bed.hv, &bed.vm_ids, MODULE)
                    .expect("uncached scan"),
            );
        });
    });
}

/// The process's minor page faults so far: field 10 of `/proc/self/stat`,
/// counted after the parenthesized command name (which may hold spaces).
/// `None` where the file does not exist.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    let (_, fields) = stat.rsplit_once(')')?;
    fields.split_whitespace().nth(7)?.parse().ok()
}

fn bench_pool_cycle(c: &mut Criterion) {
    let bed = Testbed::cloud(15);
    let modules: Vec<String> = standard_corpus(bed.width)
        .into_iter()
        .map(|b| b.name)
        .collect();
    for (name, compare) in [
        ("checker/pool_cycle", CompareStrategy::Pairwise),
        ("checker/pool_cycle_canonical", CompareStrategy::Canonical),
    ] {
        let checker = ModChecker::with_config(CheckConfig {
            compare,
            ..CheckConfig::default()
        });
        let cycle = || {
            for module in &modules {
                black_box(
                    checker
                        .check_pool(&bed.hv, &bed.vm_ids, module)
                        .expect("uncached scan"),
                );
            }
        };
        cycle();
        let scans = std::cell::Cell::new(0usize);
        let before = minor_faults();
        c.bench_function(name, |b| {
            b.iter(|| {
                cycle();
                scans.set(scans.get() + modules.len());
            });
        });
        if let (Some(before), Some(after)) = (before, minor_faults()) {
            let per_scan = (after - before) as f64 / scans.get().max(1) as f64;
            println!("      {name} minor faults per scan: {per_scan:.1}");
        }
    }
}

fn bench_compare_pair(c: &mut Criterion) {
    let width = AddressWidth::W32;
    let blueprint = ModuleBlueprint::new(MODULE, width, 128 * 1024);
    let (bed, _) =
        Testbed::infected_cloud_with(3, width, &[blueprint], Technique::InlineHook, &[2])
            .expect("inline hook applies");
    let capture = |vm: VmId| {
        let mut session = VmiSession::attach(&bed.hv, vm).expect("attach");
        ExtractedModule::new(ModuleSearcher::find(&mut session, MODULE).expect("capture"))
            .expect("parses")
    };
    let (a, clean, hooked) = (
        capture(bed.vm_ids[0]),
        capture(bed.vm_ids[1]),
        capture(bed.vm_ids[2]),
    );
    let mut group = c.benchmark_group("checker/compare_pair");
    for (name, b, matches) in [("clean", &clean, true), ("inline_hook", &hooked, false)] {
        let mut scratch = PairScratch::new();
        group.bench_function(name, |bch| {
            bch.iter(|| {
                for _ in 0..32 {
                    let o = compare_pair_with(&a, b, None, &mut scratch).expect("one algorithm");
                    assert_eq!(o.matches(), matches);
                    black_box(o);
                }
            });
        });
    }
    group.finish();
}

fn bench_canonical_forms_unit(c: &mut Criterion) {
    bench_cold_unit(c, "checker/canonical_forms_unit", &unit());
}

fn bench_canonical_forms_all_distinct(c: &mut Criterion) {
    let mut bed = unit();
    for (i, guest) in bed.guests.iter().enumerate() {
        let mut session = VmiSession::attach(&bed.hv, guest.vm).expect("attach");
        let image = ModuleSearcher::find(&mut session, MODULE).expect("capture");
        let m = ExtractedModule::new(image).expect("parses");
        let last = m.parts.exec_sections[0].range.end - 1;
        let byte = m.image.bytes[last] ^ (i as u8 + 1);
        guest
            .patch_module(&mut bed.hv, MODULE, last as u64, &[byte])
            .expect("in-image write");
    }
    bench_cold_unit(c, "checker/canonical_forms_all_distinct", &bed);
}

criterion_group!(
    benches,
    bench_canonical_forms_unit,
    bench_canonical_forms_all_distinct,
    bench_pairwise_unit,
    bench_pool_cycle,
    bench_compare_pair
);
criterion_main!(benches);
