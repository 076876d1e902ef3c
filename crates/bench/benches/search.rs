//! Module-Searcher wall-clock: list walk and page-wise image capture
//! through the introspection stack (symbol → list traversal → page copies),
//! on the paper's legacy sessions and on fast-capture sessions, plus one
//! steady-state fleet sweep (the refresh loop the attestation daemon runs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use mc_hypervisor::{FaultPlan, PAGE_SIZE};
use mc_vmi::VmiSession;
use modchecker::{CheckConfig, CompareStrategy, FleetConfig, FleetScheduler, ModuleSearcher};
use modchecker_repro::fleetgen::uniform_fleet;
use modchecker_repro::testbed::Testbed;

fn bench_list_walk(c: &mut Criterion) {
    let bed = Testbed::cloud(2);
    c.bench_function("searcher/list_modules", |b| {
        b.iter(|| {
            let mut s = VmiSession::attach(&bed.hv, bed.vm_ids[0]).expect("attach");
            black_box(ModuleSearcher::list_modules(&mut s).expect("walks"))
        });
    });
}

fn bench_capture(c: &mut Criterion) {
    let bed = Testbed::cloud(2);
    let mut group = c.benchmark_group("searcher/capture");
    for module in ["ksecdd.sys", "http.sys", "ntfs.sys"] {
        let size = bed.guests[0].find_module(module).expect("in corpus").size as u64;
        group.throughput(Throughput::Bytes(size));
        group.bench_with_input(BenchmarkId::from_parameter(module), &module, |b, module| {
            b.iter(|| {
                let mut s = VmiSession::attach(&bed.hv, bed.vm_ids[0]).expect("attach");
                black_box(ModuleSearcher::find(&mut s, module).expect("found"))
            });
        });
    }
    group.finish();
}

/// Fast-capture sessions: the per-read bookkeeping of a warm session
/// (1000 calls per iteration — one call is well under a microsecond), the
/// list walks under the fleet's transient fault plan, and a 9-page
/// generation probe.
fn bench_fast_session(c: &mut Criterion) {
    let mut bed = Testbed::cloud(2);
    let vm = bed.vm_ids[0];
    let ntfs = bed.guests[0]
        .find_module("ntfs.sys")
        .expect("in corpus")
        .clone();
    let span = 9 * PAGE_SIZE as u64;
    assert!(ntfs.size as u64 >= span, "ntfs.sys spans 9 pages");
    let mut group = c.benchmark_group("searcher/fast");

    let mut warm = VmiSession::attach(&bed.hv, vm)
        .expect("attach")
        .with_fast_capture();
    warm.range_generations(ntfs.base, span).expect("mapped");
    warm.read_ptr(ntfs.base).expect("mapped");
    group.bench_function("read_ptr_warm_x1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                black_box(warm.read_ptr(black_box(ntfs.base)).expect("mapped"));
            }
        });
    });
    group.bench_function("range_generations_9_pages_x1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                black_box(warm.range_generations(ntfs.base, span).expect("mapped"));
            }
        });
    });
    drop(warm);

    bed.hv.inject_fault_plan(FaultPlan::transient(1, 0.01));
    let fast = || {
        VmiSession::attach(&bed.hv, vm)
            .expect("attach")
            .with_fast_capture()
    };
    group.bench_function("list_modules_transient", |b| {
        b.iter(|| black_box(ModuleSearcher::list_modules(&mut fast()).expect("walks")));
    });
    group.bench_function("find_ref_transient", |b| {
        b.iter(|| black_box(ModuleSearcher::find_ref(&mut fast(), "ntfs.sys").expect("found")));
    });
    group.finish();
}

/// One steady-state sweep of the fleet configuration over a warm
/// scheduler: every capture and vote is already cached.
fn bench_steady_sweep(c: &mut Criterion) {
    let mut bed = uniform_fleet(4, 6, 3, 1);
    bed.hv.inject_fault_plan(FaultPlan::transient(1, 0.01));
    let sched = FleetScheduler::new(FleetConfig {
        check: CheckConfig {
            compare: CompareStrategy::Canonical,
            static_prepass: true,
            ..CheckConfig::default()
        },
        ..FleetConfig::default()
    });
    sched.sweep(&bed.hv, &bed.fleet);
    c.bench_function("sched/steady_sweep", |b| {
        b.iter(|| black_box(sched.sweep(&bed.hv, &bed.fleet)));
    });
}

criterion_group!(
    benches,
    bench_list_walk,
    bench_capture,
    bench_fast_session,
    bench_steady_sweep
);
criterion_main!(benches);
