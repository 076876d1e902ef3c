//! Wall-clock cost of the static pre-pass: the full lint engine
//! (`Analyzer::analyze_image`) and the standalone CFG build, over the 12
//! module captures a cold `serve_fleet` sweep analyzes — one per
//! `(pool, module)` unit of `uniform_fleet(4, 6, 3, 1)`. Each iteration
//! covers all 12 captures.
//!
//! ```text
//! cargo bench -p mc-bench --bench analysis
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mc_analysis::cfg::Cfg;
use mc_analysis::decoder::Mode;
use mc_analysis::Analyzer;
use mc_hypervisor::AddressWidth;
use mc_pe::parser::ParsedModule;
use mc_vmi::VmiSession;
use modchecker::ModuleSearcher;
use modchecker_repro::fleetgen::uniform_fleet;

/// `(module, base, bytes)` for the first VM of every pool, every module.
fn captures() -> Vec<(String, u64, Vec<u8>)> {
    let bed = uniform_fleet(4, 6, 3, 1);
    let mut out = Vec::new();
    for (pool, names) in &bed.truth.consensus {
        let spec = bed
            .fleet
            .pools
            .iter()
            .find(|p| &p.name == pool)
            .expect("pool in fleet");
        for name in names {
            let mut session = VmiSession::attach(&bed.hv, spec.vms[0]).expect("attach");
            let image = ModuleSearcher::find(&mut session, name).expect("capture");
            out.push((name.clone(), image.base, image.bytes));
        }
    }
    assert_eq!(out.len(), 12, "4 pools x 3 modules");
    out
}

fn bench_analyze_image(c: &mut Criterion) {
    let images = captures();
    let analyzer = Analyzer::new();
    c.bench_function("analysis/analyze_image", |b| {
        b.iter(|| {
            for (name, base, bytes) in &images {
                black_box(
                    analyzer
                        .analyze_image("dom1", name, *base, black_box(bytes))
                        .expect("parses"),
                );
            }
        });
    });
}

fn bench_cfg_build(c: &mut Criterion) {
    let parsed: Vec<(ParsedModule, u64, Vec<u8>)> = captures()
        .into_iter()
        .map(|(_, base, bytes)| {
            let p = ParsedModule::parse_memory(&bytes).expect("parses");
            (p, base, bytes)
        })
        .collect();
    c.bench_function("analysis/cfg_build", |b| {
        b.iter(|| {
            for (p, base, bytes) in &parsed {
                let mode = match p.width {
                    AddressWidth::W32 => Mode::Bits32,
                    AddressWidth::W64 => Mode::Bits64,
                };
                black_box(Cfg::build(p, *base, black_box(bytes), mode));
            }
        });
    });
}

criterion_group!(benches, bench_analyze_image, bench_cfg_build);
criterion_main!(benches);
