//! Property-style tests on core invariants.
//!
//! The build environment has no external crates, so instead of `proptest`
//! these run each property over a few hundred samples drawn from the
//! workspace's deterministic [`Rng64`] stream — same invariants, fixed
//! seeds, reproducible failures.

use cent_dram::{DramCommand, PimChannelTiming, TimingParams};
use cent_isa::{decode as isa_decode, encode as isa_encode, Instruction, MacOperand};
use cent_types::{
    AccRegId, BankId, Bf16, ChannelId, ChannelMask, ColAddr, DeviceId, Rng64, RowAddr, SbSlot,
};

const CASES: usize = 300;

// BF16 conversion: every roundtrip through f32 is exact.
#[test]
fn bf16_bits_roundtrip() {
    let mut rng = Rng64::seed(0x1001);
    for _ in 0..CASES {
        let bits = rng.next_u64() as u16;
        let v = Bf16::from_bits(bits);
        if !v.is_nan() {
            assert_eq!(Bf16::from_f32(v.to_f32()).to_bits(), bits);
        }
    }
}

// BF16 quantisation error is within half a ULP (2^-8 relative).
#[test]
fn bf16_error_bound() {
    let mut rng = Rng64::seed(0x1002);
    for _ in 0..CASES {
        let v = rng.uniform(-1.0e30, 1.0e30) as f32;
        let q = Bf16::from_f32(v).to_f32();
        if q.is_finite() {
            assert!((q - v).abs() <= v.abs() / 256.0 + f32::MIN_POSITIVE);
        }
    }
}

// ISA: arbitrary instructions survive the 16-byte encoding.
#[test]
fn isa_roundtrip() {
    let mut rng = Rng64::seed(0x1003);
    for _ in 0..CASES {
        let operand = if rng.next_below(2) == 1 {
            MacOperand::NeighbourBank
        } else {
            MacOperand::GlobalBuffer { slot: rng.next_below(64) as u8 }
        };
        let inst = Instruction::MacAbk {
            chmask: ChannelMask(rng.next_u64() as u32),
            opsize: 1 + rng.next_below(99_999) as u32,
            row: RowAddr(rng.next_below(16384) as u32),
            col: ColAddr(rng.next_below(64) as u32),
            reg: AccRegId::new(rng.next_below(32) as u8),
            operand,
        };
        assert_eq!(isa_decode(&isa_encode(&inst)).unwrap(), inst);
    }
}

#[test]
fn isa_data_movement_roundtrip() {
    let mut rng = Rng64::seed(0x1004);
    for _ in 0..CASES {
        let (dv, rs, rd) = (
            DeviceId(rng.next_below(4096) as u16),
            SbSlot(rng.next_below(2048) as u16),
            SbSlot(rng.next_below(2048) as u16),
        );
        let opsize = 1 + rng.next_below(9_999) as u32;
        let ch = rng.next_below(32) as u16;
        let bank = BankId(rng.next_below(16) as u16);
        for inst in [
            Instruction::SendCxl { dv, rs, rd, opsize },
            Instruction::WrSbk {
                ch: ChannelId(ch),
                opsize,
                bank,
                row: RowAddr(7),
                col: ColAddr(3),
                rs,
            },
            Instruction::RdMac { chmask: ChannelMask(1 << ch), rd, reg: AccRegId::new(0) },
        ] {
            assert_eq!(isa_decode(&isa_encode(&inst)).unwrap(), inst);
        }
    }
}

// DRAM timing: command issue times are monotonically non-decreasing.
#[test]
fn dram_issue_monotonic() {
    let mut rng = Rng64::seed(0x1005);
    for _ in 0..60 {
        let mut ch = PimChannelTiming::new();
        let mut last = cent_types::Time::ZERO;
        for _ in 0..1 + rng.next_below(5) {
            let row = rng.next_below(64) as u32;
            let t = ch.issue(DramCommand::ActAb { row: RowAddr(row) }).unwrap();
            assert!(t >= last);
            last = t;
            for col in 0..8 {
                let t = ch.issue(DramCommand::MacAb { col: ColAddr(col) }).unwrap();
                assert!(t >= last);
                last = t;
            }
            let t = ch.issue(DramCommand::PreAb).unwrap();
            assert!(t >= last);
            last = t;
        }
    }
}

// MAC beat spacing is at least tCCD_S = 1 ns.
#[test]
fn mac_beats_never_closer_than_tccds() {
    let mut rng = Rng64::seed(0x1006);
    for _ in 0..60 {
        let n = 2 + rng.next_below(62) as usize;
        let mut ch = PimChannelTiming::new();
        ch.issue(DramCommand::ActAb { row: RowAddr(0) }).unwrap();
        let mut prev = None;
        for col in 0..n {
            let t = ch.issue(DramCommand::MacAb { col: ColAddr(col as u32) }).unwrap();
            if let Some(p) = prev {
                assert!((t - p).as_ns() >= 1.0);
            }
            prev = Some(t);
        }
    }
}

// GEMV layout: element placement is injective within a matrix.
#[test]
fn gemv_layout_no_aliasing() {
    use cent_compiler::GemvLayout;
    let mut rng = Rng64::seed(0x1007);
    for _ in 0..30 {
        let m = 1 + rng.next_below(95) as usize;
        let n = 1 + rng.next_below(511) as usize;
        let chans = 1 + rng.next_below(3) as u16;
        let channels: Vec<ChannelId> = (0..chans).map(ChannelId).collect();
        let layout = GemvLayout::plan(channels, RowAddr(0), m, n).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for r in (0..m).step_by(3) {
            for e in (0..n).step_by(7) {
                let loc = layout.element_location(r, e);
                assert!(seen.insert(loc));
            }
        }
    }
}

// Shared Buffer allocator: never double-books, errors past capacity.
#[test]
fn sb_allocator_is_disjoint() {
    use cent_compiler::SbAllocator;
    let mut rng = Rng64::seed(0x1008);
    for _ in 0..CASES {
        let mut alloc = SbAllocator::new(0);
        let mut next_expected = 0usize;
        for _ in 0..1 + rng.next_below(19) {
            let s = 1 + rng.next_below(127) as usize;
            match alloc.alloc(s) {
                Ok(slot) => {
                    assert_eq!(slot.index(), next_expected);
                    next_expected += s;
                }
                Err(_) => assert!(next_expected + s > 2048),
            }
        }
    }
}

// CXL gather delivers exactly the multiset of sent payloads.
#[test]
fn cxl_gather_preserves_payloads() {
    use cent_cxl::{CommunicationEngine, FabricConfig};
    use cent_types::{Time, ZERO_BEAT};
    let mut rng = Rng64::seed(0x1009);
    for _ in 0..40 {
        let values: Vec<f32> =
            (0..1 + rng.next_below(7)).map(|_| rng.uniform(-100.0, 100.0) as f32).collect();
        let mut comm = CommunicationEngine::new(FabricConfig::cent(16));
        let contributions: Vec<_> = values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let mut beat = ZERO_BEAT;
                beat[0] = Bf16::from_f32(*v);
                (DeviceId(i as u16 + 1), vec![beat])
            })
            .collect();
        let msgs = comm.gather(DeviceId(0), &contributions, Time::ZERO).unwrap();
        let mut got: Vec<f32> = msgs.iter().map(|m| m.beats[0][0].to_f32()).collect();
        let mut want: Vec<f32> = values.iter().map(|v| Bf16::from_f32(*v).to_f32()).collect();
        got.sort_by(f32::total_cmp);
        want.sort_by(f32::total_cmp);
        assert_eq!(got, want);
    }
}

// RISC-V interpreter arithmetic matches host semantics.
#[test]
fn riscv_alu_matches_host() {
    use cent_riscv::{assemble, Cpu, Halt, Ram};
    let program = assemble(
        "add  t0, a0, a1
         sub  t1, a0, a1
         xor  t2, a0, a1
         mul  t3, a0, a1
         sltu t4, a0, a1
         ecall",
    )
    .unwrap();
    let mut rng = Rng64::seed(0x100A);
    for _ in 0..CASES {
        let a = rng.next_u64() as u32 as i32;
        let b = rng.next_u64() as u32 as i32;
        let mut ram = Ram::new(4096);
        let mut cpu = Cpu::new();
        cpu.load_program(&mut ram, 0, &program).unwrap();
        cpu.set_x(10, a as u32);
        cpu.set_x(11, b as u32);
        assert_eq!(cpu.run(&mut ram, 100).unwrap(), Halt::Ecall);
        assert_eq!(cpu.x(5), a.wrapping_add(b) as u32);
        assert_eq!(cpu.x(6), a.wrapping_sub(b) as u32);
        assert_eq!(cpu.x(7), (a ^ b) as u32);
        assert_eq!(cpu.x(28), a.wrapping_mul(b) as u32);
        assert_eq!(cpu.x(29), u32::from((a as u32) < (b as u32)));
    }
}

#[test]
fn riscv_div_rem_identity() {
    use cent_riscv::{assemble, Cpu, Halt, Ram};
    let program = assemble("div t0, a0, a1\nrem t1, a0, a1\necall").unwrap();
    let mut rng = Rng64::seed(0x100B);
    for _ in 0..CASES {
        let a = rng.next_u64() as u32 as i32;
        let b = rng.next_u64() as u32 as i32;
        if b == 0 || (a == i32::MIN && b == -1) {
            continue;
        }
        let mut ram = Ram::new(4096);
        let mut cpu = Cpu::new();
        cpu.load_program(&mut ram, 0, &program).unwrap();
        cpu.set_x(10, a as u32);
        cpu.set_x(11, b as u32);
        assert_eq!(cpu.run(&mut ram, 100).unwrap(), Halt::Ecall);
        let q = cpu.x(5) as i32;
        let r = cpu.x(6) as i32;
        // RISC-V spec: a = q*b + r with |r| < |b| and sign(r) = sign(a).
        assert_eq!(q.wrapping_mul(b).wrapping_add(r), a);
        assert!(r == 0 || r.signum() == a.signum());
        assert!(r.unsigned_abs() < b.unsigned_abs());
    }
}

// Activation LUTs: monotone functions stay monotone through the table.
#[test]
fn af_lut_preserves_monotonicity() {
    use cent_pim::{ActivationFunction, AfLut};
    let mut rng = Rng64::seed(0x100C);
    for _ in 0..40 {
        let mut sorted: Vec<f32> =
            (0..2 + rng.next_below(18)).map(|_| rng.uniform(-8.0, 8.0) as f32).collect();
        sorted.sort_by(f32::total_cmp);
        for f in [ActivationFunction::Sigmoid, ActivationFunction::Tanh, ActivationFunction::Exp] {
            let lut = AfLut::new(f);
            let ys: Vec<f32> = sorted.iter().map(|x| lut.eval(*x)).collect();
            for w in ys.windows(2) {
                assert!(w[1] >= w[0] - 1e-4, "{f:?} not monotone: {w:?}");
            }
        }
    }
}

// The PNM exponent pipeline tracks the reference within BF16 tolerance
// across its whole input range.
#[test]
fn exp_taylor_tracks_reference() {
    let mut rng = Rng64::seed(0x100D);
    for _ in 0..CASES {
        let x = rng.uniform(-80.0, 10.0) as f32;
        let got = cent_pnm::exp_taylor(x);
        let want = x.exp();
        let tol = (want * 0.02).abs().max(1e-30);
        assert!((got - want).abs() <= tol, "exp({x}) = {got}, want {want}");
    }
}

// DRAM earliest_issue is a fixed point: issuing at the returned time must
// be legal (the scheduler never undershoots a constraint).
#[test]
fn dram_earliest_issue_is_legal() {
    let mut rng = Rng64::seed(0x100E);
    for _ in 0..40 {
        let mut ch = PimChannelTiming::new();
        ch.issue(DramCommand::ActAb { row: RowAddr(0) }).unwrap();
        for _ in 0..1 + rng.next_below(31) {
            let col = ColAddr(rng.next_below(64) as u32);
            let predicted = ch.earliest_issue(DramCommand::MacAb { col }).unwrap();
            let actual = ch.issue(DramCommand::MacAb { col }).unwrap();
            assert_eq!(predicted, actual);
        }
    }
}

// ---------------------------------------------------------------------------
// Closed-form lockstep paths of the channel timing model, checked against
// the command-by-command reference (`PimChannelTiming::issue`).

/// How the random history leaves the banks before the command under test.
#[derive(Clone, Copy, Debug)]
enum BankSetup {
    /// One ACTab opened every bank: a lockstep row session.
    Lockstep,
    /// A lockstep session with one bank precharged on its own.
    Partial,
    /// Every bank opened by its own single-bank ACT, in random order.
    PerBank,
    /// A lockstep session in which one bank was re-opened on its own.
    Broken,
    /// Every bank precharged.
    Closed,
}

const SETUPS: [BankSetup; 5] = [
    BankSetup::Lockstep,
    BankSetup::Partial,
    BankSetup::PerBank,
    BankSetup::Broken,
    BankSetup::Closed,
];

const BANKS: usize = cent_types::consts::BANKS_PER_CHANNEL;

/// An idle gap of 0 ns to past the default 1.9 µs refresh interval.
fn idle_gap(rng: &mut Rng64, ch: &mut PimChannelTiming) {
    let ns = [0, 1, 7, 40, 700, 2_500][rng.next_below(6) as usize];
    ch.advance_to(ch.now() + cent_types::Time::from_ns(ns));
}

/// A few random column commands (all-bank MAC/EWMUL beats, single-bank
/// RD/WR) on the banks `open` marks, optionally with idle gaps between.
fn column_activity(rng: &mut Rng64, ch: &mut PimChannelTiming, open: &[bool], gaps: bool) {
    for _ in 0..rng.next_below(5) {
        if gaps {
            idle_gap(rng, ch);
        }
        let bank = BankId(rng.next_below(BANKS as u64) as u16);
        let col = ColAddr(rng.next_below(64) as u32);
        let cmd = match rng.next_below(4) {
            0 => DramCommand::MacAb { col },
            1 => DramCommand::EwMulAb { col },
            2 => DramCommand::Rd { bank, col },
            _ => DramCommand::Wr { bank, col },
        };
        let legal = if cmd.is_all_bank() { open.iter().all(|&o| o) } else { open[bank.index()] };
        if legal {
            ch.issue(cmd).unwrap();
        }
    }
}

/// Opens a random row in every bank with one ACTab.
fn open_lockstep(rng: &mut Rng64, ch: &mut PimChannelTiming) -> [bool; BANKS] {
    ch.issue(DramCommand::ActAb { row: RowAddr(rng.next_below(512) as u32) }).unwrap();
    [true; BANKS]
}

/// Random command history on `ch` that ends in the bank state `setup` asks
/// for. Unless `bare`, it starts with idle gaps (some past the refresh
/// deadline) and closed row sessions, and the open banks then see random
/// column commands between gaps; a bare history starts at time zero.
fn random_history(rng: &mut Rng64, ch: &mut PimChannelTiming, setup: BankSetup, bare: bool) {
    let mut open = [false; BANKS];
    if !bare {
        for _ in 0..rng.next_below(4) {
            idle_gap(rng, ch);
            let open = open_lockstep(rng, ch);
            column_activity(rng, ch, &open, true);
            if rng.next_below(3) == 0 {
                let bank = BankId(rng.next_below(BANKS as u64) as u16);
                ch.issue(DramCommand::Pre { bank }).unwrap();
            }
            idle_gap(rng, ch);
            ch.issue(DramCommand::PreAb).unwrap();
        }
        idle_gap(rng, ch);
    }
    match setup {
        BankSetup::Lockstep => open = open_lockstep(rng, ch),
        BankSetup::Partial => {
            open = open_lockstep(rng, ch);
            column_activity(rng, ch, &open, !bare);
            // Bank 0 half the time: the row switch reads its state.
            let bank = rng.next_below(2) * rng.next_below(BANKS as u64);
            ch.issue(DramCommand::Pre { bank: BankId(bank as u16) }).unwrap();
            open[bank as usize] = false;
        }
        BankSetup::PerBank => {
            let mut order: Vec<usize> = (0..BANKS).collect();
            for i in (1..BANKS).rev() {
                order.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            for b in order {
                if !bare && rng.next_below(4) == 0 {
                    idle_gap(rng, ch);
                }
                let row = RowAddr(rng.next_below(512) as u32);
                ch.issue(DramCommand::Act { bank: BankId(b as u16), row }).unwrap();
                open[b] = true;
            }
        }
        BankSetup::Broken => {
            open = open_lockstep(rng, ch);
            column_activity(rng, ch, &open, !bare);
            let bank = BankId(rng.next_below(BANKS as u64) as u16);
            ch.issue(DramCommand::Pre { bank }).unwrap();
            ch.issue(DramCommand::Act { bank, row: RowAddr(rng.next_below(512) as u32) }).unwrap();
        }
        BankSetup::Closed => {}
    }
    if !bare || rng.next_below(2) == 0 {
        column_activity(rng, ch, &open, !bare);
    }
}

/// A fresh channel: the paper's timing half the time, otherwise random
/// parameters (so orderings the defaults never produce, such as
/// `tRTP > tRAS`, are covered too), with refresh on or off.
fn random_channel(rng: &mut Rng64) -> PimChannelTiming {
    let mut ch = if rng.next_below(2) == 0 {
        PimChannelTiming::new()
    } else {
        let mut ns = |lo: u64, hi: u64| cent_types::Time::from_ns(lo + rng.next_below(hi - lo + 1));
        let t_rp = ns(1, 30);
        PimChannelTiming::with_params(TimingParams {
            t_rcdrd: ns(0, 30),
            t_rcdwr: ns(0, 30),
            t_ras: ns(0, 40),
            t_cl: ns(0, 30),
            t_ccds: ns(0, 3),
            t_ccdl: ns(0, 4),
            t_rp,
            t_rtp: ns(0, 40),
            t_wr: ns(0, 30),
            t_cwl: ns(0, 15),
            t_rrds: ns(0, 10),
            t_rfc: t_rp + ns(0, 500),
            t_refi: ns(500, 3_000),
        })
    };
    if rng.next_below(2) == 0 {
        ch.enable_refresh();
    }
    ch
}

/// Issues the same random next command on both channels and checks it
/// lands at the same time with the same resulting state.
fn next_command_agrees(rng: &mut Rng64, a: &mut PimChannelTiming, b: &mut PimChannelTiming) {
    let bank = BankId(rng.next_below(16) as u16);
    let col = ColAddr(rng.next_below(64) as u32);
    let cmd = match rng.next_below(5) {
        0 => DramCommand::PreAb,
        1 => DramCommand::MacAb { col },
        2 => DramCommand::Rd { bank, col },
        3 => DramCommand::Wr { bank, col },
        _ => DramCommand::ActAb { row: RowAddr(rng.next_below(512) as u32) },
    };
    assert_eq!(a.earliest_issue(cmd).ok(), b.earliest_issue(cmd).ok(), "{cmd:?}");
    assert_eq!(a.issue(cmd).ok(), b.issue(cmd).ok(), "{cmd:?}");
    assert_eq!(a, b, "state after {cmd:?}");
}

// A closed-form MAC burst of n beats is the n single `issue(MacAb)` calls:
// same returned time, same channel state (bus clock, busy_until, per-bank
// last reads, last column, counters), same timing for the next command.
#[test]
fn mac_burst_matches_single_beats() {
    let mut rng = Rng64::seed(0x100F);
    for case in 0..400 {
        let mut ch = random_channel(&mut rng);
        let setup = SETUPS[case % SETUPS.len()];
        random_history(&mut rng, &mut ch, setup, (case / SETUPS.len()).is_multiple_of(4));
        let n = 1 + rng.next_below(64);
        let mut reference = ch.clone();
        let mut single = Ok(cent_types::Time::ZERO);
        for i in 0..n {
            single = reference.issue(DramCommand::MacAb { col: ColAddr((i % 64) as u32) });
            if single.is_err() {
                break;
            }
        }
        let burst = ch.issue_mac_burst(n);
        assert_eq!(burst.ok(), single.ok(), "case {case} ({setup:?}): n = {n}");
        assert_eq!(ch, reference, "case {case} ({setup:?}): n = {n}");
        next_command_agrees(&mut rng, &mut ch, &mut reference);
    }
    assert!(PimChannelTiming::new().issue_mac_burst(0).is_err());
}

// The fused row switch is `PREab` then `ACTab`, whether or not the open rows
// form a lockstep session, with refresh on or off.
#[test]
fn row_switch_matches_preab_then_actab() {
    let mut rng = Rng64::seed(0x1010);
    for case in 0..400 {
        let mut ch = random_channel(&mut rng);
        let setup = SETUPS[case % SETUPS.len()];
        random_history(&mut rng, &mut ch, setup, (case / SETUPS.len()).is_multiple_of(4));
        let mut reference = ch.clone();
        // Switch twice: the second switch leaves a lockstep session that
        // holds a MAC burst and maybe an idle gap.
        for switch in 0..2 {
            let row = RowAddr(rng.next_below(512) as u32);
            reference.issue(DramCommand::PreAb).unwrap();
            let want = reference.issue(DramCommand::ActAb { row }).unwrap();
            assert_eq!(
                ch.issue_row_switch(row).unwrap(),
                want,
                "case {case} ({setup:?}), switch {switch}"
            );
            assert_eq!(ch, reference, "case {case} ({setup:?}), switch {switch}");
            let n = 1 + rng.next_below(64);
            for _ in 0..n {
                reference.issue(DramCommand::MacAb { col: ColAddr(0) }).unwrap();
            }
            ch.issue_mac_burst(n).unwrap();
            let gap = cent_types::Time::from_ns([0, 30, 2_500][rng.next_below(3) as usize]);
            ch.advance_to(ch.now() + gap);
            reference.advance_to(reference.now() + gap);
        }
        next_command_agrees(&mut rng, &mut ch, &mut reference);
    }
}

// A functional and a timing-only PIM channel run the same timing path for
// every row-walking op (MAC bursts, EW_MUL, both Global Buffer copies and
// the single-bank writes and reads): identical issue times, completion and
// counters, across row wraps.
#[test]
fn functional_and_timing_only_mac_abk_agree() {
    use cent_pim::{MacSource, PimChannel};
    let mut rng = Rng64::seed(0x1011);
    for case in 0..60 {
        let mut functional = PimChannel::functional();
        let mut timing = PimChannel::timing_only();
        for _ in 0..1 + rng.next_below(4) {
            let row = RowAddr(rng.next_below(8) as u32);
            let col = ColAddr(rng.next_below(64) as u32);
            let n = 1 + rng.next_below(200) as usize;
            let reg = AccRegId::new(rng.next_below(32) as u8);
            let source = if rng.next_below(2) == 0 {
                MacSource::NeighbourBank
            } else {
                MacSource::GlobalBuffer { slot: rng.next_below(64) as usize }
            };
            if rng.next_below(2) == 0 {
                // A single-bank access in between moves the open row.
                let bank = BankId(rng.next_below(16) as u16);
                let at = RowAddr(rng.next_below(8) as u32);
                let a = functional.write_beats(bank, at, col, &[cent_pim::ZERO_BEAT]).unwrap();
                let b = timing.write_beats(bank, at, col, &[cent_pim::ZERO_BEAT]).unwrap();
                assert_eq!(a, b, "case {case}");
            }
            let a = functional.mac_abk(row, col, n, reg, source).unwrap();
            let b = timing.mac_abk(row, col, n, reg, source).unwrap();
            assert_eq!(a, b, "case {case}: {n} beats from {row}/{col}");
            assert_eq!(functional.busy_until(), timing.busy_until(), "case {case}");
            assert_eq!(functional.activity(), timing.activity(), "case {case}");
            // One of the other row-walking ops, from a fresh start column.
            let bank = BankId(rng.next_below(16) as u16);
            let col = ColAddr(rng.next_below(64) as u32);
            let n = 1 + rng.next_below(64) as usize;
            let slot = rng.next_below(65 - n as u64) as usize;
            let beats = vec![cent_pim::ZERO_BEAT; n];
            let op = rng.next_below(5);
            let walk = |ch: &mut PimChannel| match op {
                0 => ch.ew_mul(row, col, n).unwrap(),
                1 => ch.copy_bank_to_gb(bank, row, col, slot, n).unwrap(),
                2 => ch.copy_gb_to_bank(bank, row, col, slot, n).unwrap(),
                3 => ch.write_beats(bank, row, col, &beats).unwrap(),
                _ => ch.read_beats(bank, row, col, &mut vec![cent_pim::ZERO_BEAT; n]).unwrap(),
            };
            let a = walk(&mut functional);
            let b = walk(&mut timing);
            assert_eq!(a, b, "case {case}: op {op}, {n} beats from {row}/{col}");
            assert_eq!(functional.busy_until(), timing.busy_until(), "case {case}");
            assert_eq!(functional.activity(), timing.activity(), "case {case}");
        }
    }
}
