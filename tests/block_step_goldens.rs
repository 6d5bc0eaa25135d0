//! Goldens for `simulate_block_step`: every field of the block timing the
//! cost oracle composes — total, PIM/PNM/CXL/host attribution, per-phase
//! wall-clock, DRAM and PNM activity counters and the instruction count —
//! pinned in integer picoseconds and counts.
//!
//! The constants were captured from the command-by-command channel timing
//! model (one `PimChannelTiming::issue` per MAC beat). They must not move
//! when the timing model takes faster but provably equivalent paths, such
//! as the closed-form all-bank MAC bursts.

use cent::compiler::BlockPhase;
use cent::dram::ActivityCounters;
use cent::model::ModelConfig;
use cent::pnm::PnmStats;
use cent::sim::simulate_block_step;
use cent::{LatencyBreakdown, Time};

struct Golden {
    total: u64,
    /// `(pim, pnm, cxl, host)` in ps.
    breakdown: [u64; 4],
    phases: [(BlockPhase, u64); 7],
    dram: ActivityCounters,
    pnm: PnmStats,
    instructions: u64,
}

fn check(cfg: &ModelConfig, channels: usize, position: usize, want: &Golden) {
    let got = simulate_block_step(cfg, channels, position).unwrap();
    let at = format!("{} on {channels} channels at position {position}", cfg.name);
    assert_eq!(got.total, Time::from_ps(want.total), "total, {at}");
    let [pim, pnm, cxl, host] = want.breakdown.map(Time::from_ps);
    assert_eq!(got.breakdown, LatencyBreakdown { pim, pnm, cxl, host }, "breakdown, {at}");
    let phases: Vec<(BlockPhase, u64)> =
        got.phases.iter().map(|(phase, t)| (*phase, t.as_ps())).collect();
    assert_eq!(phases, want.phases, "phases, {at}");
    assert_eq!(got.dram, want.dram, "dram, {at}");
    assert_eq!(got.pnm, want.pnm, "pnm, {at}");
    assert_eq!(got.instructions, want.instructions, "instructions, {at}");
}

#[test]
fn tiny_block_step_matches_golden() {
    let cfg = ModelConfig::tiny();
    check(
        &cfg,
        2,
        3,
        &Golden {
            total: 5_196_000,
            breakdown: [3_340_000, 1_712_000, 0, 0],
            phases: [
                (BlockPhase::Norm, 506_500),
                (BlockPhase::FcQkv, 353_500),
                (BlockPhase::Rope, 1_398_500),
                (BlockPhase::KvAppend, 119_000),
                (BlockPhase::Attention, 1_110_000),
                (BlockPhase::FcWo, 448_000),
                (BlockPhase::FcFfn, 1_260_500),
            ],
            dram: ActivityCounters {
                acts: 1632,
                pres: 1600,
                reads: 84,
                writes: 96,
                mac_beats: 2464,
                ewmul_beats: 56,
                refreshes: 0,
                commands: 550,
            },
            pnm: PnmStats { acc_beats: 24, red_beats: 10, exp_beats: 4, riscv_instructions: 3950 },
            instructions: 288,
        },
    );
    check(
        &cfg,
        2,
        63,
        &Golden {
            total: 5_080_000,
            breakdown: [3_360_000, 1_556_000, 0, 0],
            phases: [
                (BlockPhase::Norm, 506_500),
                (BlockPhase::FcQkv, 353_500),
                (BlockPhase::Rope, 1_398_500),
                (BlockPhase::KvAppend, 119_000),
                (BlockPhase::Attention, 994_000),
                (BlockPhase::FcWo, 448_000),
                (BlockPhase::FcFfn, 1_260_500),
            ],
            dram: ActivityCounters {
                acts: 1632,
                pres: 1600,
                reads: 84,
                writes: 96,
                mac_beats: 2848,
                ewmul_beats: 56,
                refreshes: 0,
                commands: 574,
            },
            pnm: PnmStats { acc_beats: 36, red_beats: 10, exp_beats: 16, riscv_instructions: 3638 },
            instructions: 328,
        },
    );
}

#[test]
fn llama2_7b_block_step_matches_golden() {
    let cfg = ModelConfig::llama2_7b();
    check(
        &cfg,
        8,
        16,
        &Golden {
            total: 356_993_500,
            breakdown: [257_314_000, 95_500_500, 0, 0],
            phases: [
                (BlockPhase::Norm, 4_722_500),
                (BlockPhase::FcQkv, 43_969_500),
                (BlockPhase::Rope, 77_259_000),
                (BlockPhase::KvAppend, 3_422_500),
                (BlockPhase::Attention, 40_312_000),
                (BlockPhase::FcWo, 56_688_000),
                (BlockPhase::FcFfn, 130_620_000),
            ],
            dram: ActivityCounters {
                acts: 352_880,
                pres: 352_752,
                reads: 26_336,
                writes: 21_760,
                mac_beats: 12_665_856,
                ewmul_beats: 11_648,
                refreshes: 0,
                commands: 886_726,
            },
            pnm: PnmStats {
                acc_beats: 9024,
                red_beats: 66,
                exp_beats: 64,
                riscv_instructions: 239_010,
            },
            instructions: 8358,
        },
    );
    check(
        &cfg,
        8,
        4095,
        &Golden {
            total: 693_977_500,
            breakdown: [576_386_000, 98_628_500, 0, 0],
            phases: [
                (BlockPhase::Norm, 4_722_500),
                (BlockPhase::FcQkv, 43_969_500),
                (BlockPhase::Rope, 77_259_000),
                (BlockPhase::KvAppend, 3_422_500),
                (BlockPhase::Attention, 377_296_000),
                (BlockPhase::FcWo, 56_688_000),
                (BlockPhase::FcFfn, 130_620_000),
            ],
            dram: ActivityCounters {
                acts: 417_904,
                pres: 417_776,
                reads: 26_336,
                writes: 21_760,
                mac_beats: 14_746_624,
                ewmul_beats: 11_648,
                refreshes: 0,
                commands: 1_024_902,
            },
            pnm: PnmStats {
                acc_beats: 17_152,
                red_beats: 66,
                exp_beats: 8192,
                riscv_instructions: 235_938,
            },
            instructions: 37_926,
        },
    );
}
