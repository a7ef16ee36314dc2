//! Ablations on the Galois-field substrate: the dispatched GF(2^8)
//! `Mult_XOR` region kernel (AVX2 nibble shuffle where the CPU has it, the
//! scalar split-table loop otherwise) vs a naive per-byte log/exp loop, and
//! GF(2^8) vs GF(2^16) region throughput (the word-size effect of §6.2.1).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use stair_gf::{BitMatrix8, Field, Gf16, Gf8};

fn bench_gf_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("gf_region_kernels");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    let len = 64 * 1024;
    let src = vec![0xA7u8; len];
    let mut dst = vec![0x11u8; len];
    group.throughput(Throughput::Bytes(len as u64));

    group.bench_function("gf8_dispatched", |b| {
        b.iter(|| Gf8::mult_xor_region(&mut dst, &src, 0x53));
    });

    group.bench_function("gf8_per_byte_logexp", |b| {
        b.iter(|| {
            for (d, &s) in dst.iter_mut().zip(&src) {
                *d ^= Gf8::mul(0x53, s);
            }
        });
    });

    group.bench_function("gf16_split_table", |b| {
        b.iter(|| Gf16::mult_xor_region(&mut dst, &src, 0x5353));
    });

    // XOR-only bit-matrix kernel (Cauchy-RS-as-XOR, refs [8, 38]).
    let bm = BitMatrix8::for_constant(0x53);
    group.bench_function("gf8_bitmatrix_xor", |b| {
        b.iter(|| bm.mult_xor_region_bitsliced(&mut dst, &src));
    });
    group.finish();
}

fn bench_gf_width(c: &mut Criterion) {
    let mut group = c.benchmark_group("gf_width_effect");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_secs(2));
    // A full row-parity computation: 14 data symbols into 2 parities,
    // 8 KiB symbols — once over GF(2^8), once over GF(2^16).
    let k = 14usize;
    let symbol = 8192usize;
    let data: Vec<Vec<u8>> = (0..k).map(|i| vec![i as u8; symbol]).collect();
    let mut p = vec![0u8; symbol];
    group.throughput(Throughput::Bytes((k * symbol) as u64));
    group.bench_function("w8", |b| {
        b.iter(|| {
            p.fill(0);
            for (i, d) in data.iter().enumerate() {
                Gf8::mult_xor_region(&mut p, d, Gf8::exp(i));
            }
        });
    });
    group.bench_function("w16", |b| {
        b.iter(|| {
            p.fill(0);
            for (i, d) in data.iter().enumerate() {
                Gf16::mult_xor_region(&mut p, d, Gf16::exp(i));
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_gf_kernels, bench_gf_width);
criterion_main!(benches);
