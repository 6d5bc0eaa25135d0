//! Criterion microbenchmarks for the simulator substrates: how fast the
//! simulator itself runs (not the modelled hardware).
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cent_compiler::{compile_decode_step, BlockPlacement};
use cent_dram::{DramCommand, PimChannelTiming};
use cent_isa::{decode, encode};
use cent_model::{reference_block, BlockWeights, KvCache, ModelConfig};
use cent_sim::simulate_block_step;
use cent_types::{ChannelId, ColAddr, RowAddr};

fn bench_dram_timing(c: &mut Criterion) {
    c.bench_function("dram_row_of_mac_beats", |b| {
        b.iter(|| {
            let mut ch = PimChannelTiming::new();
            ch.issue(DramCommand::ActAb { row: RowAddr(0) }).unwrap();
            for col in 0..64 {
                ch.issue(DramCommand::MacAb { col: ColAddr(col) }).unwrap();
            }
            ch.issue(DramCommand::PreAb).unwrap();
            black_box(ch.busy_until())
        })
    });
    // Same row, issued as one closed-form lockstep burst (bit-identical
    // state; the per-bank checks run on the first beat only).
    c.bench_function("dram_row_of_mac_beats_burst", |b| {
        b.iter(|| {
            let mut ch = PimChannelTiming::new();
            ch.issue(DramCommand::ActAb { row: RowAddr(0) }).unwrap();
            ch.issue_mac_burst(64).unwrap();
            ch.issue(DramCommand::PreAb).unwrap();
            black_box(ch.busy_until())
        })
    });
}

fn bench_isa_roundtrip(c: &mut Criterion) {
    let cfg = ModelConfig::tiny();
    let placement = BlockPlacement::plan(&cfg, vec![ChannelId(0)]).unwrap();
    let step = compile_decode_step(&placement, 7).unwrap();
    c.bench_function("isa_encode_decode_block_trace", |b| {
        b.iter(|| {
            for inst in &step.trace {
                let word = encode(inst);
                black_box(decode(&word).unwrap());
            }
        })
    });
}

fn bench_block_compile(c: &mut Criterion) {
    let cfg = ModelConfig::tiny();
    let placement = BlockPlacement::plan(&cfg, vec![ChannelId(0), ChannelId(1)]).unwrap();
    c.bench_function("compile_tiny_block_step", |b| {
        b.iter(|| black_box(compile_decode_step(&placement, 31).unwrap()))
    });
}

fn bench_block_simulation(c: &mut Criterion) {
    let cfg = ModelConfig::tiny();
    c.bench_function("simulate_tiny_block_step", |b| {
        b.iter(|| black_box(simulate_block_step(&cfg, 2, 31).unwrap()))
    });
}

fn bench_reference_block(c: &mut Criterion) {
    let cfg = ModelConfig::tiny();
    let w = BlockWeights::random(&cfg, 1);
    let x = vec![0.01f32; cfg.hidden];
    c.bench_function("reference_block_f32", |b| {
        b.iter(|| {
            let mut cache = KvCache::new();
            black_box(reference_block(&cfg, &w, &x, &mut cache, 0))
        })
    });
}

criterion_group!(
    benches,
    bench_dram_timing,
    bench_isa_roundtrip,
    bench_block_compile,
    bench_block_simulation,
    bench_reference_block
);
criterion_main!(benches);
