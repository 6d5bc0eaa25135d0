//! RV32IMF functional core with a pluggable memory bus.

use cent_types::{CentError, CentResult};

use crate::inst::{decode, Inst};

/// Data-memory interface seen by the core.
///
/// The PNM crate implements this over the device Shared Buffer plus core-local
/// scratch RAM; tests use the plain [`Ram`]. Functions take `&mut self`
/// because MMIO reads may have side effects.
pub trait Bus {
    /// Loads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`CentError::RiscvTrap`] on access faults.
    fn load8(&mut self, addr: u32) -> CentResult<u8>;

    /// Stores one byte.
    ///
    /// # Errors
    ///
    /// Returns [`CentError::RiscvTrap`] on access faults.
    fn store8(&mut self, addr: u32, value: u8) -> CentResult<()>;

    /// Loads a little-endian halfword.
    ///
    /// # Errors
    ///
    /// Returns [`CentError::RiscvTrap`] on access faults.
    fn load16(&mut self, addr: u32) -> CentResult<u16> {
        Ok(u16::from(self.load8(addr)?) | (u16::from(self.load8(addr + 1)?) << 8))
    }

    /// Stores a little-endian halfword.
    ///
    /// # Errors
    ///
    /// Returns [`CentError::RiscvTrap`] on access faults.
    fn store16(&mut self, addr: u32, value: u16) -> CentResult<()> {
        self.store8(addr, value as u8)?;
        self.store8(addr + 1, (value >> 8) as u8)
    }

    /// Loads a little-endian word.
    ///
    /// # Errors
    ///
    /// Returns [`CentError::RiscvTrap`] on access faults.
    fn load32(&mut self, addr: u32) -> CentResult<u32> {
        Ok(u32::from(self.load16(addr)?) | (u32::from(self.load16(addr + 2)?) << 16))
    }

    /// Stores a little-endian word.
    ///
    /// # Errors
    ///
    /// Returns [`CentError::RiscvTrap`] on access faults.
    fn store32(&mut self, addr: u32, value: u32) -> CentResult<()> {
        self.store16(addr, value as u16)?;
        self.store16(addr + 2, (value >> 16) as u16)
    }
}

/// A flat little-endian RAM for tests and standalone programs.
#[derive(Debug, Clone)]
pub struct Ram {
    data: Vec<u8>,
}

impl Ram {
    /// Creates a zero-filled RAM of `size` bytes.
    pub fn new(size: usize) -> Self {
        Ram { data: vec![0; size] }
    }

    /// Raw contents.
    pub fn data(&self) -> &[u8] {
        &self.data
    }
}

impl Bus for Ram {
    fn load8(&mut self, addr: u32) -> CentResult<u8> {
        self.data
            .get(addr as usize)
            .copied()
            .ok_or_else(|| CentError::RiscvTrap(format!("load fault at {addr:#010x}")))
    }

    fn store8(&mut self, addr: u32, value: u8) -> CentResult<()> {
        match self.data.get_mut(addr as usize) {
            Some(slot) => {
                *slot = value;
                Ok(())
            }
            None => Err(CentError::RiscvTrap(format!("store fault at {addr:#010x}"))),
        }
    }
}

/// Why [`Cpu::run`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halt {
    /// The program executed `ecall` (CENT convention: program done).
    Ecall,
    /// The program executed `ebreak`.
    Ebreak,
    /// The instruction budget was exhausted before the program halted.
    OutOfFuel,
}

/// Dynamic instruction-mix counters, consumed by the BOOM timing model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Total instructions retired.
    pub retired: u64,
    /// Loads and stores (integer + float).
    pub mem_ops: u64,
    /// Taken branches and jumps (pipeline redirects).
    pub taken_branches: u64,
    /// Integer multiplies.
    pub muls: u64,
    /// Integer divides/remainders.
    pub divs: u64,
    /// FP add/sub/mul/compare/convert ops.
    pub fp_ops: u64,
    /// FP divide and square-root ops (long latency).
    pub fp_div_sqrt: u64,
}

/// The RV32IMF core state.
///
/// # Examples
///
/// ```
/// use cent_riscv::{assemble, Cpu, Halt, Ram};
///
/// # fn main() -> Result<(), cent_types::CentError> {
/// let program = assemble(
///     "li a0, 6
///      li a1, 7
///      mul a0, a0, a1
///      ecall",
/// )?;
/// let mut ram = Ram::new(4096);
/// let mut cpu = Cpu::new();
/// cpu.load_program(&mut ram, 0, &program)?;
/// assert_eq!(cpu.run(&mut ram, 1000)?, Halt::Ecall);
/// assert_eq!(cpu.x(10), 42); // a0
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cpu {
    x: [u32; 32],
    f: [f32; 32],
    /// Program counter.
    pub pc: u32,
    stats: ExecStats,
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

impl Cpu {
    /// Creates a core with all registers zeroed and `pc = 0`.
    pub fn new() -> Self {
        Cpu { x: [0; 32], f: [0.0; 32], pc: 0, stats: ExecStats::default() }
    }

    /// Reads integer register `i` (x0 is always 0).
    #[inline]
    pub fn x(&self, i: usize) -> u32 {
        if i == 0 {
            0
        } else {
            self.x[i]
        }
    }

    /// Writes integer register `i` (writes to x0 are ignored).
    #[inline]
    pub fn set_x(&mut self, i: usize, value: u32) {
        if i != 0 {
            self.x[i] = value;
        }
    }

    /// Instruction-mix statistics accumulated so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Copies `words` into memory at `base` and sets `pc = base`.
    ///
    /// # Errors
    ///
    /// Propagates bus store faults.
    pub fn load_program<B: Bus>(
        &mut self,
        bus: &mut B,
        base: u32,
        words: &[u32],
    ) -> CentResult<()> {
        for (i, &w) in words.iter().enumerate() {
            bus.store32(base + (i as u32) * 4, w)?;
        }
        self.pc = base;
        Ok(())
    }

    /// Executes a single instruction.
    ///
    /// Returns `Some(halt)` if the instruction was `ecall`/`ebreak`.
    ///
    /// # Errors
    ///
    /// Returns [`CentError::RiscvTrap`] on illegal instructions, misaligned
    /// jumps or bus faults.
    pub fn step<B: Bus>(&mut self, bus: &mut B) -> CentResult<Option<Halt>> {
        let word = bus.load32(self.pc)?;
        let inst = decode(word)?;
        let mut next_pc = self.pc.wrapping_add(4);
        self.stats.retired += 1;
        if inst.is_mem() {
            self.stats.mem_ops += 1;
        }

        macro_rules! rr {
            ($rd:expr, $v:expr) => {
                self.set_x($rd as usize, $v)
            };
        }
        macro_rules! branch {
            ($cond:expr, $imm:expr) => {
                if $cond {
                    next_pc = self.pc.wrapping_add($imm as u32);
                    self.stats.taken_branches += 1;
                }
            };
        }

        match inst {
            Inst::Lui { rd, imm } => rr!(rd, imm as u32),
            Inst::Auipc { rd, imm } => rr!(rd, self.pc.wrapping_add(imm as u32)),
            Inst::Jal { rd, imm } => {
                rr!(rd, next_pc);
                next_pc = self.pc.wrapping_add(imm as u32);
                self.stats.taken_branches += 1;
            }
            Inst::Jalr { rd, rs1, imm } => {
                let target = self.x(rs1 as usize).wrapping_add(imm as u32) & !1;
                rr!(rd, next_pc);
                next_pc = target;
                self.stats.taken_branches += 1;
            }
            Inst::Beq { rs1, rs2, imm } => {
                branch!(self.x(rs1 as usize) == self.x(rs2 as usize), imm)
            }
            Inst::Bne { rs1, rs2, imm } => {
                branch!(self.x(rs1 as usize) != self.x(rs2 as usize), imm)
            }
            Inst::Blt { rs1, rs2, imm } => {
                branch!((self.x(rs1 as usize) as i32) < (self.x(rs2 as usize) as i32), imm)
            }
            Inst::Bge { rs1, rs2, imm } => {
                branch!((self.x(rs1 as usize) as i32) >= (self.x(rs2 as usize) as i32), imm)
            }
            Inst::Bltu { rs1, rs2, imm } => {
                branch!(self.x(rs1 as usize) < self.x(rs2 as usize), imm)
            }
            Inst::Bgeu { rs1, rs2, imm } => {
                branch!(self.x(rs1 as usize) >= self.x(rs2 as usize), imm)
            }
            Inst::Lb { rd, rs1, imm } => {
                let a = self.x(rs1 as usize).wrapping_add(imm as u32);
                rr!(rd, bus.load8(a)? as i8 as i32 as u32);
            }
            Inst::Lh { rd, rs1, imm } => {
                let a = self.x(rs1 as usize).wrapping_add(imm as u32);
                rr!(rd, bus.load16(a)? as i16 as i32 as u32);
            }
            Inst::Lw { rd, rs1, imm } => {
                let a = self.x(rs1 as usize).wrapping_add(imm as u32);
                rr!(rd, bus.load32(a)?);
            }
            Inst::Lbu { rd, rs1, imm } => {
                let a = self.x(rs1 as usize).wrapping_add(imm as u32);
                rr!(rd, u32::from(bus.load8(a)?));
            }
            Inst::Lhu { rd, rs1, imm } => {
                let a = self.x(rs1 as usize).wrapping_add(imm as u32);
                rr!(rd, u32::from(bus.load16(a)?));
            }
            Inst::Sb { rs1, rs2, imm } => {
                let a = self.x(rs1 as usize).wrapping_add(imm as u32);
                bus.store8(a, self.x(rs2 as usize) as u8)?;
            }
            Inst::Sh { rs1, rs2, imm } => {
                let a = self.x(rs1 as usize).wrapping_add(imm as u32);
                bus.store16(a, self.x(rs2 as usize) as u16)?;
            }
            Inst::Sw { rs1, rs2, imm } => {
                let a = self.x(rs1 as usize).wrapping_add(imm as u32);
                bus.store32(a, self.x(rs2 as usize))?;
            }
            Inst::Addi { rd, rs1, imm } => rr!(rd, self.x(rs1 as usize).wrapping_add(imm as u32)),
            Inst::Slti { rd, rs1, imm } => {
                rr!(rd, u32::from((self.x(rs1 as usize) as i32) < imm))
            }
            Inst::Sltiu { rd, rs1, imm } => rr!(rd, u32::from(self.x(rs1 as usize) < imm as u32)),
            Inst::Xori { rd, rs1, imm } => rr!(rd, self.x(rs1 as usize) ^ imm as u32),
            Inst::Ori { rd, rs1, imm } => rr!(rd, self.x(rs1 as usize) | imm as u32),
            Inst::Andi { rd, rs1, imm } => rr!(rd, self.x(rs1 as usize) & imm as u32),
            Inst::Slli { rd, rs1, shamt } => rr!(rd, self.x(rs1 as usize) << shamt),
            Inst::Srli { rd, rs1, shamt } => rr!(rd, self.x(rs1 as usize) >> shamt),
            Inst::Srai { rd, rs1, shamt } => {
                rr!(rd, ((self.x(rs1 as usize) as i32) >> shamt) as u32)
            }
            Inst::Add { rd, rs1, rs2 } => {
                rr!(rd, self.x(rs1 as usize).wrapping_add(self.x(rs2 as usize)))
            }
            Inst::Sub { rd, rs1, rs2 } => {
                rr!(rd, self.x(rs1 as usize).wrapping_sub(self.x(rs2 as usize)))
            }
            Inst::Sll { rd, rs1, rs2 } => {
                rr!(rd, self.x(rs1 as usize) << (self.x(rs2 as usize) & 31))
            }
            Inst::Slt { rd, rs1, rs2 } => {
                rr!(rd, u32::from((self.x(rs1 as usize) as i32) < (self.x(rs2 as usize) as i32)))
            }
            Inst::Sltu { rd, rs1, rs2 } => {
                rr!(rd, u32::from(self.x(rs1 as usize) < self.x(rs2 as usize)))
            }
            Inst::Xor { rd, rs1, rs2 } => rr!(rd, self.x(rs1 as usize) ^ self.x(rs2 as usize)),
            Inst::Srl { rd, rs1, rs2 } => {
                rr!(rd, self.x(rs1 as usize) >> (self.x(rs2 as usize) & 31))
            }
            Inst::Sra { rd, rs1, rs2 } => {
                rr!(rd, ((self.x(rs1 as usize) as i32) >> (self.x(rs2 as usize) & 31)) as u32)
            }
            Inst::Or { rd, rs1, rs2 } => rr!(rd, self.x(rs1 as usize) | self.x(rs2 as usize)),
            Inst::And { rd, rs1, rs2 } => rr!(rd, self.x(rs1 as usize) & self.x(rs2 as usize)),
            Inst::Fence => {}
            Inst::Ecall => return Ok(Some(Halt::Ecall)),
            Inst::Ebreak => return Ok(Some(Halt::Ebreak)),
            Inst::Mul { rd, rs1, rs2 } => {
                self.stats.muls += 1;
                rr!(rd, self.x(rs1 as usize).wrapping_mul(self.x(rs2 as usize)));
            }
            Inst::Mulh { rd, rs1, rs2 } => {
                self.stats.muls += 1;
                let p = (self.x(rs1 as usize) as i32 as i64) * (self.x(rs2 as usize) as i32 as i64);
                rr!(rd, (p >> 32) as u32);
            }
            Inst::Mulhsu { rd, rs1, rs2 } => {
                self.stats.muls += 1;
                let p = (self.x(rs1 as usize) as i32 as i64) * (self.x(rs2 as usize) as i64);
                rr!(rd, (p >> 32) as u32);
            }
            Inst::Mulhu { rd, rs1, rs2 } => {
                self.stats.muls += 1;
                let p = (self.x(rs1 as usize) as u64) * (self.x(rs2 as usize) as u64);
                rr!(rd, (p >> 32) as u32);
            }
            Inst::Div { rd, rs1, rs2 } => {
                self.stats.divs += 1;
                let (a, b) = (self.x(rs1 as usize) as i32, self.x(rs2 as usize) as i32);
                let q = if b == 0 {
                    -1
                } else if a == i32::MIN && b == -1 {
                    a
                } else {
                    a.wrapping_div(b)
                };
                rr!(rd, q as u32);
            }
            Inst::Divu { rd, rs1, rs2 } => {
                self.stats.divs += 1;
                let (a, b) = (self.x(rs1 as usize), self.x(rs2 as usize));
                rr!(rd, a.checked_div(b).unwrap_or(u32::MAX));
            }
            Inst::Rem { rd, rs1, rs2 } => {
                self.stats.divs += 1;
                let (a, b) = (self.x(rs1 as usize) as i32, self.x(rs2 as usize) as i32);
                let r = if b == 0 {
                    a
                } else if a == i32::MIN && b == -1 {
                    0
                } else {
                    a.wrapping_rem(b)
                };
                rr!(rd, r as u32);
            }
            Inst::Remu { rd, rs1, rs2 } => {
                self.stats.divs += 1;
                let (a, b) = (self.x(rs1 as usize), self.x(rs2 as usize));
                rr!(rd, if b == 0 { a } else { a % b });
            }
            Inst::Flw { rd, rs1, imm } => {
                let a = self.x(rs1 as usize).wrapping_add(imm as u32);
                self.f[rd as usize] = f32::from_bits(bus.load32(a)?);
            }
            Inst::Fsw { rs1, rs2, imm } => {
                let a = self.x(rs1 as usize).wrapping_add(imm as u32);
                bus.store32(a, self.f[rs2 as usize].to_bits())?;
            }
            Inst::FaddS { rd, rs1, rs2 } => {
                self.stats.fp_ops += 1;
                self.f[rd as usize] = self.f[rs1 as usize] + self.f[rs2 as usize];
            }
            Inst::FsubS { rd, rs1, rs2 } => {
                self.stats.fp_ops += 1;
                self.f[rd as usize] = self.f[rs1 as usize] - self.f[rs2 as usize];
            }
            Inst::FmulS { rd, rs1, rs2 } => {
                self.stats.fp_ops += 1;
                self.f[rd as usize] = self.f[rs1 as usize] * self.f[rs2 as usize];
            }
            Inst::FdivS { rd, rs1, rs2 } => {
                self.stats.fp_div_sqrt += 1;
                self.f[rd as usize] = self.f[rs1 as usize] / self.f[rs2 as usize];
            }
            Inst::FsqrtS { rd, rs1 } => {
                self.stats.fp_div_sqrt += 1;
                self.f[rd as usize] = self.f[rs1 as usize].sqrt();
            }
            Inst::FsgnjS { rd, rs1, rs2 } => {
                self.stats.fp_ops += 1;
                self.f[rd as usize] = copysign_bits(self.f[rs1 as usize], self.f[rs2 as usize]);
            }
            Inst::FsgnjnS { rd, rs1, rs2 } => {
                self.stats.fp_ops += 1;
                self.f[rd as usize] = copysign_bits(self.f[rs1 as usize], -self.f[rs2 as usize]);
            }
            Inst::FsgnjxS { rd, rs1, rs2 } => {
                self.stats.fp_ops += 1;
                let sign =
                    (self.f[rs1 as usize].to_bits() ^ self.f[rs2 as usize].to_bits()) & 0x8000_0000;
                self.f[rd as usize] =
                    f32::from_bits((self.f[rs1 as usize].to_bits() & 0x7FFF_FFFF) | sign);
            }
            Inst::FminS { rd, rs1, rs2 } => {
                self.stats.fp_ops += 1;
                self.f[rd as usize] = self.f[rs1 as usize].min(self.f[rs2 as usize]);
            }
            Inst::FmaxS { rd, rs1, rs2 } => {
                self.stats.fp_ops += 1;
                self.f[rd as usize] = self.f[rs1 as usize].max(self.f[rs2 as usize]);
            }
            Inst::FcvtWS { rd, rs1 } => {
                self.stats.fp_ops += 1;
                rr!(rd, (self.f[rs1 as usize].round_ties_even() as i32) as u32);
            }
            Inst::FcvtWuS { rd, rs1 } => {
                self.stats.fp_ops += 1;
                rr!(rd, self.f[rs1 as usize].round_ties_even() as u32);
            }
            Inst::FmvXW { rd, rs1 } => rr!(rd, self.f[rs1 as usize].to_bits()),
            Inst::FeqS { rd, rs1, rs2 } => {
                self.stats.fp_ops += 1;
                rr!(rd, u32::from(self.f[rs1 as usize] == self.f[rs2 as usize]));
            }
            Inst::FltS { rd, rs1, rs2 } => {
                self.stats.fp_ops += 1;
                rr!(rd, u32::from(self.f[rs1 as usize] < self.f[rs2 as usize]));
            }
            Inst::FleS { rd, rs1, rs2 } => {
                self.stats.fp_ops += 1;
                rr!(rd, u32::from(self.f[rs1 as usize] <= self.f[rs2 as usize]));
            }
            Inst::FcvtSW { rd, rs1 } => {
                self.stats.fp_ops += 1;
                self.f[rd as usize] = self.x(rs1 as usize) as i32 as f32;
            }
            Inst::FcvtSWu { rd, rs1 } => {
                self.stats.fp_ops += 1;
                self.f[rd as usize] = self.x(rs1 as usize) as f32;
            }
            Inst::FmvWX { rd, rs1 } => {
                self.f[rd as usize] = f32::from_bits(self.x(rs1 as usize));
            }
        }
        self.pc = next_pc;
        Ok(None)
    }

    /// Runs until the program halts or `fuel` instructions retire.
    ///
    /// # Errors
    ///
    /// Propagates traps from [`Self::step`].
    pub fn run<B: Bus>(&mut self, bus: &mut B, fuel: u64) -> CentResult<Halt> {
        for _ in 0..fuel {
            if let Some(halt) = self.step(bus)? {
                return Ok(halt);
            }
        }
        Ok(Halt::OutOfFuel)
    }
}

fn copysign_bits(magnitude: f32, sign: f32) -> f32 {
    f32::from_bits((magnitude.to_bits() & 0x7FFF_FFFF) | (sign.to_bits() & 0x8000_0000))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run_program(src: &str) -> Cpu {
        let words = assemble(src).expect("assembly failed");
        let mut ram = Ram::new(64 * 1024);
        let mut cpu = Cpu::new();
        cpu.load_program(&mut ram, 0, &words).unwrap();
        assert_eq!(cpu.run(&mut ram, 100_000).unwrap(), Halt::Ecall);
        cpu
    }

    #[test]
    fn arithmetic_loop_sums_one_to_ten() {
        let cpu = run_program(
            "li a0, 0
             li t0, 1
             li t1, 11
             loop:
             add a0, a0, t0
             addi t0, t0, 1
             bne t0, t1, loop
             ecall",
        );
        assert_eq!(cpu.x(10), 55);
    }

    #[test]
    fn memory_round_trip() {
        let cpu = run_program(
            "li t0, 0x1000
             li t1, 0xABCD
             sh t1, 0(t0)
             lhu a0, 0(t0)
             lh a1, 0(t0)
             ecall",
        );
        assert_eq!(cpu.x(10), 0xABCD);
        assert_eq!(cpu.x(11), 0xFFFF_ABCD); // sign-extended
    }

    #[test]
    fn mul_div_semantics() {
        let cpu = run_program(
            "li a0, -7
             li a1, 2
             div a2, a0, a1
             rem a3, a0, a1
             mul a4, a0, a1
             ecall",
        );
        assert_eq!(cpu.x(12) as i32, -3);
        assert_eq!(cpu.x(13) as i32, -1);
        assert_eq!(cpu.x(14) as i32, -14);
    }

    #[test]
    fn div_by_zero_follows_spec() {
        let cpu = run_program(
            "li a0, 42
             li a1, 0
             div a2, a0, a1
             rem a3, a0, a1
             divu a4, a0, a1
             ecall",
        );
        assert_eq!(cpu.x(12) as i32, -1);
        assert_eq!(cpu.x(13), 42);
        assert_eq!(cpu.x(14), u32::MAX);
    }

    #[test]
    fn float_sqrt_and_div() {
        let cpu = run_program(
            "li t0, 0x41100000   # 9.0f
             fmv.w.x f0, t0
             fsqrt.s f1, f0      # 3.0
             li t1, 0x3f800000   # 1.0f
             fmv.w.x f2, t1
             fdiv.s f3, f2, f1   # 1/3
             fmv.x.w a0, f1
             fmv.x.w a1, f3
             ecall",
        );
        assert_eq!(f32::from_bits(cpu.x(10)), 3.0);
        assert!((f32::from_bits(cpu.x(11)) - 1.0 / 3.0).abs() < 1e-7);
    }

    #[test]
    fn float_convert_and_compare() {
        let cpu = run_program(
            "li t0, 5
             fcvt.s.w f0, t0
             li t1, 3
             fcvt.s.w f1, t1
             flt.s a0, f1, f0
             fle.s a1, f0, f1
             fcvt.w.s a2, f0
             ecall",
        );
        assert_eq!(cpu.x(10), 1);
        assert_eq!(cpu.x(11), 0);
        assert_eq!(cpu.x(12), 5);
    }

    #[test]
    fn function_call_and_return() {
        let cpu = run_program(
            "li a0, 20
             jal ra, double
             ecall
             double:
             slli a0, a0, 1
             jalr x0, ra, 0",
        );
        assert_eq!(cpu.x(10), 40);
    }

    #[test]
    fn stats_track_instruction_mix() {
        let cpu = run_program(
            "li t0, 6
             li t1, 7
             mul t2, t0, t1
             div t3, t2, t0
             lw t4, 0(x0)
             ecall",
        );
        let s = cpu.stats();
        assert_eq!(s.muls, 1);
        assert_eq!(s.divs, 1);
        assert_eq!(s.mem_ops, 1);
        assert!(s.retired >= 6);
    }

    #[test]
    fn out_of_fuel() {
        let words = assemble("loop: j loop").unwrap();
        let mut ram = Ram::new(1024);
        let mut cpu = Cpu::new();
        cpu.load_program(&mut ram, 0, &words).unwrap();
        assert_eq!(cpu.run(&mut ram, 10).unwrap(), Halt::OutOfFuel);
    }

    #[test]
    fn bus_fault_traps() {
        let words = assemble("lw a0, 0(x0)").unwrap();
        let mut ram = Ram::new(2); // too small even for the fetch
        let mut cpu = Cpu::new();
        assert!(cpu.load_program(&mut ram, 0, &words).is_err());
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let cpu = run_program(
            "li t0, 99
             add x0, t0, t0
             add a0, x0, x0
             ecall",
        );
        assert_eq!(cpu.x(10), 0);
    }
}
