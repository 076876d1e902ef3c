//! End-to-end pool checks: wall-clock scaling with pool size, and a full
//! pool check, which splits its stages over the host's cores (ABL-1 on real
//! threads: run under `taskset -c 0` for the sequential baseline).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use modchecker::ModChecker;
use modchecker_repro::testbed::Testbed;

fn bench_check_one_scaling(c: &mut Criterion) {
    let bed = Testbed::cloud(15);
    let checker = ModChecker::new();
    let mut group = c.benchmark_group("e2e/check_one_http_sys");
    group.sample_size(10);
    for n in [2usize, 5, 10, 15] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let ids = &bed.vm_ids[..n];
            b.iter(|| {
                black_box(
                    checker
                        .check_one(&bed.hv, ids[0], &ids[1..], "http.sys")
                        .expect("check"),
                )
            });
        });
    }
    group.finish();
}

fn bench_check_pool(c: &mut Criterion) {
    let bed = Testbed::cloud(12);
    let checker = ModChecker::new();
    let mut group = c.benchmark_group("e2e/pool_ntfs_sys_12vms");
    group.sample_size(10);
    group.bench_function("check_pool", |b| {
        b.iter(|| {
            black_box(
                checker
                    .check_pool(&bed.hv, &bed.vm_ids, "ntfs.sys")
                    .expect("check"),
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_check_one_scaling, bench_check_pool);
criterion_main!(benches);
