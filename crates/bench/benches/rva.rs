//! Algorithm 2 (diff-based RVA adjustment) wall-clock, plus ablation ABL-2:
//! the relocation-table-driven normalizer it replaces.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use mc_hypervisor::{AddressWidth, Vm, VmId};
use mc_pe::corpus::ModuleBlueprint;
use mc_pe::parser::ParsedModule;
use modchecker::rva::{adjust_rvas, normalize_with_reloc_table};

/// Captures the .text of one blueprint loaded at `base` plus the full
/// memory image.
fn capture(text_size: usize, base: u64) -> (Vec<u8>, Vec<u8>, ParsedModule) {
    let mut vm = Vm::new(VmId(0), "bench", AddressWidth::W32);
    let pe = ModuleBlueprint::new("bench.sys", AddressWidth::W32, text_size)
        .build()
        .expect("builds");
    let m = mc_guest::load_module(&mut vm, &pe, "bench.sys", base).expect("loads");
    let mut img = vec![0u8; m.size as usize];
    vm.read_virt(m.base, &mut img).expect("reads");
    let parsed = ParsedModule::parse_memory(&img).expect("parses");
    let text = parsed.section_data(&img, 0).expect("text").to_vec();
    (text, img, parsed)
}

fn bench_adjust(c: &mut Criterion) {
    let mut group = c.benchmark_group("rva_adjust");
    for text_kb in [64usize, 256] {
        let base_a = 0xF712_0000u64;
        let base_b = 0xF7C4_3000u64;
        let (text_a, _, _) = capture(text_kb << 10, base_a);
        let (text_b, _, _) = capture(text_kb << 10, base_b);
        group.throughput(Throughput::Bytes(2 * text_a.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("algorithm2_pair", text_kb),
            &(text_a, text_b),
            |bch, (ta, tb)| {
                bch.iter(|| {
                    let mut a = ta.clone();
                    let mut b = tb.clone();
                    let stats = adjust_rvas(&mut a, &mut b, base_a, base_b, AddressWidth::W32);
                    black_box((a, b, stats))
                });
            },
        );
    }
    group.finish();
}

/// Two loaded copies of a synthetic `len`-byte section whose 4-byte
/// address slots start every 8 to 16 bytes — far denser than compiled
/// code, and the word scan's worst case: nearly every word it reads holds
/// a difference.
fn dense_pair(len: usize, base_a: u64, base_b: u64) -> (Vec<u8>, Vec<u8>) {
    let file: Vec<u8> = (0..len).map(|i| (i * 7 % 251) as u8).collect();
    let (mut a, mut b) = (file.clone(), file);
    let mut at = 0usize;
    let mut k = 0usize;
    while at + 4 <= len {
        let rva = u32::from_le_bytes([a[at], a[at + 1], a[at + 2], a[at + 3]]);
        a[at..at + 4].copy_from_slice(&rva.wrapping_add(base_a as u32).to_le_bytes());
        b[at..at + 4].copy_from_slice(&rva.wrapping_add(base_b as u32).to_le_bytes());
        at += 8 + k % 9;
        k += 1;
    }
    (a, b)
}

fn bench_adjust_dense(c: &mut Criterion) {
    let base_a = 0xF712_0000u64;
    let base_b = 0xF7C4_3000u64;
    let (text_a, text_b) = dense_pair(256 << 10, base_a, base_b);
    let mut group = c.benchmark_group("rva_adjust");
    group.throughput(Throughput::Bytes(2 * text_a.len() as u64));
    group.bench_function("algorithm2_pair_dense_slots_256", |bch| {
        bch.iter(|| {
            let mut a = text_a.clone();
            let mut b = text_b.clone();
            let stats = adjust_rvas(&mut a, &mut b, base_a, base_b, AddressWidth::W32);
            black_box((a, b, stats))
        });
    });
    group.finish();
}

fn bench_reloc_table_ablation(c: &mut Criterion) {
    // ABL-2: normalizing one capture via its own .reloc metadata. Faster
    // per capture (single image, table-driven) but trusts in-guest data.
    let base = 0xF712_0000u64;
    let (_, img, parsed) = capture(256 << 10, base);
    c.bench_function("rva_adjust/reloc_table_single_256", |b| {
        b.iter(|| {
            let mut image = img.clone();
            let n = normalize_with_reloc_table(&mut image, base, &parsed)
                .expect("reloc section present");
            black_box((image, n))
        });
    });
}

criterion_group!(
    benches,
    bench_adjust,
    bench_adjust_dense,
    bench_reloc_table_ablation
);
criterion_main!(benches);
