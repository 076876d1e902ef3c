//! Wall-clock cost of a cached pool scan after a byte-identical page
//! rewrite: one 8-VM `hal.dll` unit in canonical mode, where each round
//! writes one `.text` byte of one VM back over itself (its page's
//! write-generation moves, its bytes do not) and rescans through the warm
//! capture cache. Each iteration runs 8 such rounds, one per VM.
//!
//! ```text
//! cargo bench -p mc-bench --bench pool
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mc_hypervisor::AddressWidth;
use mc_pe::corpus::ModuleBlueprint;
use mc_vmi::VmiSession;
use modchecker::{CaptureCache, CheckConfig, CompareStrategy, ModChecker, ModuleSearcher};
use modchecker_repro::testbed::Testbed;

const MODULE: &str = "hal.dll";
/// A byte inside `.text` (page 1 of the image).
const TEXT_OFFSET: u64 = 0x1003;

fn bench_refresh_identical_page(c: &mut Criterion) {
    let width = AddressWidth::W32;
    let mut bed = Testbed::cloud_with(8, width, &[ModuleBlueprint::new(MODULE, width, 128 * 1024)]);
    let originals: Vec<u8> = bed
        .vm_ids
        .iter()
        .map(|&vm| {
            let mut session = VmiSession::attach(&bed.hv, vm).expect("attach");
            ModuleSearcher::find(&mut session, MODULE)
                .expect("capture")
                .bytes[TEXT_OFFSET as usize]
        })
        .collect();
    let checker = ModChecker::with_config(CheckConfig {
        compare: CompareStrategy::Canonical,
        ..CheckConfig::default()
    });
    let mut cache = CaptureCache::new();
    checker
        .check_pool_with_cache(&bed.hv, &bed.vm_ids, MODULE, &mut cache)
        .expect("cold scan");
    c.bench_function("pool/refresh_identical_page", |b| {
        b.iter(|| {
            for (guest, &byte) in bed.guests.iter().zip(&originals) {
                guest
                    .patch_module(&mut bed.hv, MODULE, TEXT_OFFSET, &[byte])
                    .expect("in-image write");
                black_box(
                    checker
                        .check_pool_with_cache(&bed.hv, &bed.vm_ids, MODULE, &mut cache)
                        .expect("cached scan"),
                );
            }
        });
    });
}

criterion_group!(benches, bench_refresh_identical_page);
criterion_main!(benches);
