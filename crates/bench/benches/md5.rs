//! Wall-clock throughput of the from-scratch MD5 (the hashing kernel the
//! Integrity-Checker runs over every header and executable section).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn bench_md5(c: &mut Criterion) {
    let mut group = c.benchmark_group("md5");
    // 64 B and 248 B are header-part sizes: there the padding block, not
    // the bulk loop, is most of the work.
    for size in [64usize, 248, 1 << 10, 64 << 10, 256 << 10, 1 << 20] {
        let data: Vec<u8> = (0..size).map(|i| (i * 31 % 251) as u8).collect();
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("oneshot", size), &data, |b, data| {
            b.iter(|| mc_md5::md5(black_box(data)));
        });
    }
    group.finish();
}

fn bench_md5_incremental(c: &mut Criterion) {
    // Incremental hashing in page-sized chunks, as the checker would hash a
    // section streamed out of a guest.
    let data: Vec<u8> = (0..256 << 10).map(|i| (i * 7 % 251) as u8).collect();
    c.bench_function("md5/incremental_4k_chunks_256k", |b| {
        b.iter(|| {
            let mut ctx = mc_md5::Md5::new();
            for chunk in black_box(&data).chunks(4096) {
                ctx.update(chunk);
            }
            ctx.finalize()
        });
    });
}

criterion_group!(benches, bench_md5, bench_md5_incremental);
criterion_main!(benches);
