//! Wall-clock cost of the canonical pass over one cold 8-VM `hal.dll`
//! unit: a canonical-mode `check_pool_with_cache` on an empty capture
//! cache, which captures, parses and canonicalizes every VM's copy.
//!
//! * `checker/canonical_forms_unit` — a clean unit: every capture
//!   normalizes to the same `.text`.
//! * `checker/canonical_forms_all_distinct` — every capture's `.text`
//!   differs in its last byte, the worst case for the per-scan section
//!   table: each lookup compares against every recorded section to its
//!   last byte and still hashes.
//!
//! Each iteration runs 4 cold scans.
//!
//! ```text
//! cargo bench -p mc-bench --bench checker
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mc_hypervisor::AddressWidth;
use mc_pe::corpus::ModuleBlueprint;
use mc_vmi::VmiSession;
use modchecker::{
    CaptureCache, CheckConfig, CompareStrategy, ExtractedModule, ModChecker, ModuleSearcher,
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
    bench_canonical_forms_all_distinct
);
criterion_main!(benches);
