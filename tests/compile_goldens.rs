//! Goldens for `compile_decode_step`, plus the exactness of the Shared
//! Buffer estimate that channel planning relies on.
//!
//! The goldens pin, for every case, FNV-1a hashes of the encoded
//! instruction trace and of the per-instruction phase tags, and the block
//! input/output slot. The cases cover the three tiny functional models and
//! the Llama2 placements the cost oracle compiles, at position 1, either
//! side of the first attention-segment boundary (384 tokens for `head_dim`
//! 128) and one late position. The Shared Buffer high-water mark is not
//! pinned: it is a planning figure, checked against `sb_demand` below.

use cent::compiler::{compile_decode_step, max_feasible_channels, sb_demand, BlockPlacement};
use cent::isa::encode_trace;
use cent::model::{FfnKind, ModelConfig, PositionalKind};
use cent::types::ChannelId;

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn tiny_gpt() -> ModelConfig {
    ModelConfig {
        name: "Tiny-GPT",
        ffn: FfnKind::Gelu,
        positional: PositionalKind::Absolute,
        ..ModelConfig::tiny()
    }
}

fn tiny_mha() -> ModelConfig {
    ModelConfig { name: "Tiny-MHA", kv_heads: 4, ..ModelConfig::tiny() }
}

fn model(name: &str) -> ModelConfig {
    match name {
        "Tiny-Test" => ModelConfig::tiny(),
        "Tiny-GPT" => tiny_gpt(),
        "Tiny-MHA" => tiny_mha(),
        "Llama2-7B" => ModelConfig::llama2_7b(),
        "Llama2-13B" => ModelConfig::llama2_13b(),
        "Llama2-70B" => ModelConfig::llama2_70b(),
        other => panic!("unknown model {other}"),
    }
}

fn placement(cfg: &ModelConfig, channels: usize) -> cent::CentResult<BlockPlacement> {
    BlockPlacement::plan(cfg, (0..channels as u16).map(ChannelId).collect())
}

/// `(trace hash, tag hash, x_slot)` of one compiled step.
fn fingerprint(name: &str, channels: usize, position: usize) -> (u64, u64, usize) {
    let p = placement(&model(name), channels).expect("placement plans");
    let step = compile_decode_step(&p, position).expect("step compiles");
    assert_eq!(step.trace.len(), step.tags.len(), "{name}/{channels}@{position}");
    let trace = fnv1a(encode_trace(&step.trace));
    let tags = fnv1a(step.tags.iter().map(|&t| t as u8));
    (trace, tags, step.x_slot.index())
}

const TINY_POSITIONS: [usize; 3] = [1, 31, 63];
const LLAMA_POSITIONS: [usize; 5] = [1, 383, 384, 385, 4000];

/// `(model, channels, position)` in table order.
fn cases() -> Vec<(&'static str, usize, usize)> {
    let mut out = Vec::new();
    for name in ["Tiny-Test", "Tiny-GPT", "Tiny-MHA"] {
        for c in [1, 2] {
            out.extend(TINY_POSITIONS.iter().map(|&pos| (name, c, pos)));
        }
    }
    for (name, channels) in [
        ("Llama2-7B", &[32, 16, 10, 8][..]),
        ("Llama2-13B", &[20, 16, 10][..]),
        ("Llama2-70B", &[14, 8, 4][..]),
    ] {
        for &c in channels {
            out.extend(LLAMA_POSITIONS.iter().map(|&pos| (name, c, pos)));
        }
    }
    out
}

/// `(model, channels, position, trace hash, tag hash, x_slot)`, captured
/// before the GEMV pass emitters were merged into `TraceBuilder::gemv_pass`.
#[rustfmt::skip]
const GOLDENS: &[(&str, usize, usize, u64, u64, usize)] = &[
    ("Tiny-Test", 1, 1, 0x5bd8965eb26f7bc5, 0x677d101ee33b89bf, 3),
    ("Tiny-Test", 1, 31, 0x9f5b9a5d7a2a0879, 0xa17d03fe3fc06fc7, 3),
    ("Tiny-Test", 1, 63, 0xc873adf49a7caa01, 0x70b4b040fec3a43f, 3),
    ("Tiny-Test", 2, 1, 0xd1eac71b020b6927, 0xe50365322d65f77b, 3),
    ("Tiny-Test", 2, 31, 0x276f1013f155d1ff, 0xa591eabcf6608d9b, 3),
    ("Tiny-Test", 2, 63, 0xa7c671cb87b94be7, 0x550fc38f22181f7b, 3),
    ("Tiny-GPT", 1, 1, 0x795083a5dc9f31b0, 0xa45dd7f6b49e3e4d, 3),
    ("Tiny-GPT", 1, 31, 0x6f0e214a377da6cc, 0x7913ad43b688a395, 3),
    ("Tiny-GPT", 1, 63, 0x762597ec446784d4, 0x9685157780c3b12d, 3),
    ("Tiny-GPT", 2, 1, 0x9ebc027ef6cd712a, 0xab2a6aa413a3fd25, 3),
    ("Tiny-GPT", 2, 31, 0xc37ba6109276f19e, 0xb420c8ad0843af25, 3),
    ("Tiny-GPT", 2, 63, 0x725fa9f1cb40da16, 0xcbc1de77e12e8865, 3),
    ("Tiny-MHA", 1, 1, 0x4ff7168ec2a860d5, 0x1360e41f86ff0c71, 3),
    ("Tiny-MHA", 1, 31, 0x239f742d1aa67215, 0x586ac12ab7844fa9, 3),
    ("Tiny-MHA", 1, 63, 0x5619d26607f648e5, 0x813bc8f433e66591, 3),
    ("Tiny-MHA", 2, 1, 0x11127da37ff54189, 0x8163797709ac3d8f, 3),
    ("Tiny-MHA", 2, 31, 0x4aca7cac6a83c045, 0xb4a2710b2b7acc6f, 3),
    ("Tiny-MHA", 2, 63, 0xc9fcf5b22c8f9e61, 0x8306c877c05be78f, 3),
    ("Llama2-7B", 32, 1, 0x307be5eada66e22f, 0xe7291033f4aa9839, 3),
    ("Llama2-7B", 32, 383, 0x965957470df4adcf, 0x12eef28c1458aa79, 3),
    ("Llama2-7B", 32, 384, 0x3a4b3d2339402b0b, 0x3f56683850176439, 3),
    ("Llama2-7B", 32, 385, 0x6b186e441615abe3, 0x3f56683850176439, 3),
    ("Llama2-7B", 32, 4000, 0x1e13b513f71f1aeb, 0xd95881838c051939, 3),
    ("Llama2-7B", 16, 1, 0x0a3b75450c52aad6, 0x0d03cbe3ace28a45, 3),
    ("Llama2-7B", 16, 383, 0xd9715761017d798e, 0xbf86ca4962786e05, 3),
    ("Llama2-7B", 16, 384, 0xacab95932615a712, 0xfc623012b1769e45, 3),
    ("Llama2-7B", 16, 385, 0x69181cb334b09342, 0xfc623012b1769e45, 3),
    ("Llama2-7B", 16, 4000, 0x1a7bf2577d50eb82, 0xa063df497eabc145, 3),
    ("Llama2-7B", 10, 1, 0x3c396bd64b455cf4, 0x69e2a34fe10c2d41, 3),
    ("Llama2-7B", 10, 383, 0xe2dc61cdf7c5639f, 0x851afb993a502f41, 3),
    ("Llama2-7B", 10, 384, 0xe5c7908837200b0b, 0x39c41844be01dd41, 3),
    ("Llama2-7B", 10, 385, 0x638bc2d2ba001647, 0x39c41844be01dd41, 3),
    ("Llama2-7B", 10, 4000, 0xf7c90e395508b020, 0x9ef74115c6975941, 3),
    ("Llama2-7B", 8, 1, 0xe155b539f561cc3f, 0x9e32c835ac54dd99, 3),
    ("Llama2-7B", 8, 383, 0xce59daea232bb79f, 0x99b15513f5c4b6d9, 3),
    ("Llama2-7B", 8, 384, 0x091e35258fb40a3b, 0x260089b90d8f3999, 3),
    ("Llama2-7B", 8, 385, 0xa178b5998a94dddb, 0x260089b90d8f3999, 3),
    ("Llama2-7B", 8, 4000, 0x747b951ee2ac6f2b, 0x782f0996fe44ba99, 3),
    ("Llama2-13B", 20, 1, 0x5c38bccf7383f3db, 0x37546e35ed0b7542, 3),
    ("Llama2-13B", 20, 383, 0xd458247a4f2a07cb, 0x619f02cafa925982, 3),
    ("Llama2-13B", 20, 384, 0xb6ca01803fb9aa37, 0xb5b5ed27c92bb142, 3),
    ("Llama2-13B", 20, 385, 0xa0c81cdde638c007, 0xb5b5ed27c92bb142, 3),
    ("Llama2-13B", 20, 4000, 0x4f31b7ceaee93b97, 0xb9a664bacde34642, 3),
    ("Llama2-13B", 16, 1, 0x9dfdbd633e35d4ea, 0xcc0461396030b05e, 3),
    ("Llama2-13B", 16, 383, 0xf034fac8a1c44547, 0x8957984c4fd5b35e, 3),
    ("Llama2-13B", 16, 384, 0x10c7ea43cb51ff8b, 0x63f4abfe4903505e, 3),
    ("Llama2-13B", 16, 385, 0xab41fe8f5aaed243, 0x63f4abfe4903505e, 3),
    ("Llama2-13B", 16, 4000, 0x915c64c16f3359a2, 0x701570e4f265385e, 3),
    ("Llama2-13B", 10, 1, 0xdc5b8114f5af6573, 0xf0e3d0206c63fd5c, 3),
    ("Llama2-13B", 10, 383, 0x101db0f58a619d9f, 0xfaa3409c3d66359c, 3),
    ("Llama2-13B", 10, 384, 0x0649e960424af39b, 0xb9b659af323aa95c, 3),
    ("Llama2-13B", 10, 385, 0x24b2319abd2f908b, 0xb9b659af323aa95c, 3),
    ("Llama2-13B", 10, 4000, 0xc1aa329d42f83f6f, 0xe0e8a3f78bbee25c, 3),
    ("Llama2-70B", 14, 1, 0x30bc4b9d5531d20d, 0xa4e9369233547a6b, 3),
    ("Llama2-70B", 14, 383, 0x61b01c7eebdd7049, 0x689b880bb5b7d4cb, 3),
    ("Llama2-70B", 14, 384, 0xd0a443a8070f8689, 0xedad361551872e6b, 3),
    ("Llama2-70B", 14, 385, 0x27689106b6fe3271, 0xedad361551872e6b, 3),
    ("Llama2-70B", 14, 4000, 0x52cf7d808d3f4efd, 0xb41e99e1bdbefe6b, 3),
    ("Llama2-70B", 8, 1, 0xabfd8f664d7c8c7b, 0x500150689c91b6c9, 3),
    ("Llama2-70B", 8, 383, 0xe482c8872cfc7bc3, 0x7309c858c222ecc9, 3),
    ("Llama2-70B", 8, 384, 0x18daeef8faa10753, 0x66ad119109fa5ec9, 3),
    ("Llama2-70B", 8, 385, 0x045909a4c419450b, 0x66ad119109fa5ec9, 3),
    ("Llama2-70B", 8, 4000, 0xd8c3f0b56f13a05b, 0x7f784e6c32cc9cc9, 3),
    ("Llama2-70B", 4, 1, 0x0b1b541de1a8ca0d, 0xa74fbe9e67acb04d, 3),
    ("Llama2-70B", 4, 383, 0x87823d1472b66e9d, 0xc40ff5d7a8c74a4d, 3),
    ("Llama2-70B", 4, 384, 0x30ffa4868d22e285, 0x0f0d1d3b9105104d, 3),
    ("Llama2-70B", 4, 385, 0x72606f4f307ac87d, 0x0f0d1d3b9105104d, 3),
    ("Llama2-70B", 4, 4000, 0x52b781f3d331dd45, 0x5401bbd89369484d, 3),
];

#[test]
fn compiled_traces_match_goldens() {
    let table: Vec<(&str, usize, usize)> = GOLDENS.iter().map(|g| (g.0, g.1, g.2)).collect();
    assert_eq!(table, cases(), "the golden table covers every case, in order");
    for &(name, c, pos, trace, tags, x) in GOLDENS {
        let (got_trace, got_tags, got_x) = fingerprint(name, c, pos);
        assert_eq!(
            (got_trace, got_tags, got_x),
            (trace, tags, x),
            "{name} on {c} channels at position {pos}: got ({got_trace:#018x}, {got_tags:#018x}, {got_x})"
        );
    }
}

/// `sb_demand` is the compiled high-water mark for every model and channel
/// count whose placement plans, and `max_feasible_channels` never picks a
/// channel count that fails to compile.
#[test]
fn sb_demand_is_the_compiled_high_water_mark() {
    let models = [
        ModelConfig::tiny(),
        tiny_gpt(),
        tiny_mha(),
        ModelConfig::llama2_7b(),
        ModelConfig::llama2_13b(),
        ModelConfig::llama2_70b(),
        ModelConfig::llama2_70b_long(32_768),
        ModelConfig::opt_66b(),
        ModelConfig::gpt3_175b(),
    ];
    for cfg in &models {
        for c in 1..=32 {
            let at = format!("{} on {c} channels", cfg.name);
            if let Ok(p) = placement(cfg, c) {
                let demand = sb_demand(cfg, c);
                match compile_decode_step(&p, 1) {
                    Ok(step) => assert_eq!(demand, step.sb_high_water, "{at}"),
                    Err(e) => assert!(
                        demand > cent::types::consts::SHARED_BUFFER_SLOTS,
                        "{at}: sb_demand {demand} fits but compiling fails: {e}"
                    ),
                }
            }
            let feasible = max_feasible_channels(cfg, c);
            if let Ok(p) = placement(cfg, feasible) {
                if let Err(e) = compile_decode_step(&p, 1) {
                    panic!("{at}: max_feasible_channels picks {feasible}, which fails: {e}");
                }
            }
        }
    }
}
