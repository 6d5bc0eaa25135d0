//! Software implementation of the Bfloat16 format used by CENT's near-bank
//! processing units.
//!
//! The GDDR6-PIM MAC trees described in the paper operate on BF16 operands
//! (§4.2): each multiplier consumes two 16-bit inputs and the reduction tree
//! accumulates partial products. We model the common hardware choice of
//! multiplying/accumulating in single precision and rounding the visible
//! result back to BF16 (round-to-nearest-even), which is also what the
//! original AiM silicon does for its activation datapath.
//!
//! The type is a transparent `u16` wrapper so banks can store raw bit
//! patterns; all arithmetic round-trips through `f32`.

use core::cmp::Ordering;
use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub};

/// A 16-bit brain floating point number (1 sign, 8 exponent, 7 mantissa bits).
///
/// # Examples
///
/// ```
/// use cent_types::Bf16;
///
/// let x = Bf16::from_f32(1.5);
/// let y = Bf16::from_f32(2.0);
/// assert_eq!((x * y).to_f32(), 3.0);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct Bf16(u16);

impl Bf16 {
    /// Positive zero.
    pub const ZERO: Bf16 = Bf16(0x0000);
    /// One.
    pub const ONE: Bf16 = Bf16(0x3F80);
    /// Negative one.
    pub const NEG_ONE: Bf16 = Bf16(0xBF80);
    /// Positive infinity.
    pub const INFINITY: Bf16 = Bf16(0x7F80);
    /// Negative infinity.
    pub const NEG_INFINITY: Bf16 = Bf16(0xFF80);
    /// A quiet NaN.
    pub const NAN: Bf16 = Bf16(0x7FC0);
    /// Largest finite value (`3.3895314e38`).
    pub const MAX: Bf16 = Bf16(0x7F7F);
    /// Smallest finite value.
    pub const MIN: Bf16 = Bf16(0xFF7F);
    /// Machine epsilon: the difference between 1.0 and the next larger value.
    pub const EPSILON: Bf16 = Bf16(0x3C00); // 2^-7

    /// Creates a value from its raw bit pattern.
    ///
    /// This is the representation stored inside simulated DRAM banks.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        Bf16(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts from `f32` with round-to-nearest-even, matching the rounding
    /// mode of the modelled MAC units.
    #[inline]
    pub fn from_f32(value: f32) -> Self {
        let bits = value.to_bits();
        if value.is_nan() {
            // Preserve sign and payload MSB, force a quiet NaN.
            return Bf16(((bits >> 16) as u16) | 0x0040);
        }
        // Round to nearest even: add 0x7FFF + LSB of the truncated result.
        let round_bit = (bits >> 16) & 1;
        let rounded = bits.wrapping_add(0x7FFF + round_bit);
        Bf16((rounded >> 16) as u16)
    }

    /// Converts to `f32` exactly (every BF16 value is representable in f32).
    #[inline]
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }

    /// Returns `true` if the value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7F80) == 0x7F80 && (self.0 & 0x007F) != 0
    }

    /// Returns `true` if the value is positive or negative infinity.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7F80
    }

    /// Returns `true` if the value is neither NaN nor infinite.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7F80) != 0x7F80
    }

    /// Absolute value (clears the sign bit).
    #[inline]
    pub fn abs(self) -> Self {
        Bf16(self.0 & 0x7FFF)
    }

    /// Fused multiply-add performed at f32 precision, rounded once at the end.
    ///
    /// The near-bank PU accumulates MAC results in 32 accumulation registers;
    /// we model those registers as f32 and round when they are read back via
    /// `RD_MAC`, so intermediate accumulation uses this helper.
    #[inline]
    pub fn mul_add(self, a: Bf16, b: Bf16) -> Self {
        Bf16::from_f32(self.to_f32().mul_add(a.to_f32(), b.to_f32()))
    }

    /// Converts a slice of `f32` into BF16, rounding each element.
    pub fn quantize_slice(values: &[f32]) -> Vec<Bf16> {
        values.iter().copied().map(Bf16::from_f32).collect()
    }

    /// Converts a slice of BF16 back to `f32`.
    pub fn dequantize_slice(values: &[Bf16]) -> Vec<f32> {
        values.iter().copied().map(Bf16::to_f32).collect()
    }
}

impl From<f32> for Bf16 {
    fn from(value: f32) -> Self {
        Bf16::from_f32(value)
    }
}

impl From<Bf16> for f32 {
    fn from(value: Bf16) -> Self {
        value.to_f32()
    }
}

impl fmt::Debug for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bf16({})", self.to_f32())
    }
}

impl fmt::Display for Bf16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl PartialOrd for Bf16 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

macro_rules! impl_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for Bf16 {
            type Output = Bf16;
            #[inline]
            fn $method(self, rhs: Bf16) -> Bf16 {
                Bf16::from_f32(self.to_f32() $op rhs.to_f32())
            }
        }
    };
}

impl_binop!(Add, add, +);
impl_binop!(Sub, sub, -);
impl_binop!(Mul, mul, *);
impl_binop!(Div, div, /);

impl AddAssign for Bf16 {
    #[inline]
    fn add_assign(&mut self, rhs: Bf16) {
        *self = *self + rhs;
    }
}

impl MulAssign for Bf16 {
    #[inline]
    fn mul_assign(&mut self, rhs: Bf16) {
        *self = *self * rhs;
    }
}

impl Neg for Bf16 {
    type Output = Bf16;
    #[inline]
    fn neg(self) -> Bf16 {
        Bf16(self.0 ^ 0x8000)
    }
}

impl Sum for Bf16 {
    fn sum<I: Iterator<Item = Bf16>>(iter: I) -> Self {
        // Hardware reduction trees accumulate in wider precision; mirror that.
        Bf16::from_f32(iter.map(Bf16::to_f32).sum())
    }
}

/// Maximum relative error introduced by one BF16 rounding step.
///
/// With a 7-bit mantissa the half-ULP relative bound is `2^-8`. Verification
/// helpers in higher-level crates scale this by the reduction depth.
pub const BF16_RELATIVE_ERROR: f32 = 1.0 / 256.0;

/// One 256-bit datapath beat: 16 BF16 lanes. Every PIM/PNM datapath in CENT
/// moves data at this granularity (§4.2).
pub type Beat = [Bf16; 16];

/// A zeroed [`Beat`].
pub const ZERO_BEAT: Beat = [Bf16::ZERO; 16];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_exact_values() {
        for v in [0.0f32, 1.0, -1.0, 0.5, 2.0, -128.0, 3.140625] {
            assert_eq!(Bf16::from_f32(v).to_f32(), v, "value {v} should be exact");
        }
    }

    #[test]
    fn rounding_is_nearest_even() {
        // 1.0 + 2^-8 is exactly halfway between 1.0 and 1.0 + 2^-7:
        // round-to-even picks 1.0 (even mantissa).
        let halfway = 1.0 + f32::powi(2.0, -8);
        assert_eq!(Bf16::from_f32(halfway).to_f32(), 1.0);
        // Slightly above halfway rounds up.
        let above = 1.0 + f32::powi(2.0, -8) + f32::powi(2.0, -12);
        assert_eq!(Bf16::from_f32(above).to_f32(), 1.0 + f32::powi(2.0, -7));
    }

    #[test]
    fn special_values() {
        assert!(Bf16::NAN.is_nan());
        assert!(!Bf16::NAN.is_finite());
        assert!(Bf16::INFINITY.is_infinite());
        assert!(Bf16::NEG_INFINITY.is_infinite());
        assert!(!Bf16::INFINITY.is_finite());
        assert!(Bf16::MAX.is_finite());
        assert_eq!(Bf16::from_f32(f32::INFINITY), Bf16::INFINITY);
        assert!(Bf16::from_f32(f32::NAN).is_nan());
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        // f32::MAX is far outside BF16's finite range after rounding.
        let big = Bf16::from_f32(3.4e38);
        assert!(big.is_infinite());
    }

    #[test]
    fn negation_flips_sign_bit_only() {
        let x = Bf16::from_f32(2.5);
        assert_eq!((-x).to_f32(), -2.5);
        assert_eq!((-Bf16::ZERO).to_bits(), 0x8000);
    }

    #[test]
    fn arithmetic_matches_f32_with_rounding() {
        let a = Bf16::from_f32(1.5);
        let b = Bf16::from_f32(0.25);
        assert_eq!((a + b).to_f32(), 1.75);
        assert_eq!((a - b).to_f32(), 1.25);
        assert_eq!((a * b).to_f32(), 0.375);
        assert_eq!((a / b).to_f32(), 6.0);
    }

    #[test]
    fn mul_add_rounds_once() {
        let a = Bf16::from_f32(3.0);
        let b = Bf16::from_f32(5.0);
        let c = Bf16::from_f32(7.0);
        assert_eq!(a.mul_add(b, c).to_f32(), 22.0);
    }

    #[test]
    fn sum_uses_wide_accumulator() {
        // 256 copies of 1/256 must sum to exactly 1.0 with an f32 accumulator,
        // whereas naive BF16 accumulation would stall once the running sum
        // grows past the point where 1/256 is representable relative to it.
        let x = Bf16::from_f32(1.0 / 256.0);
        let total: Bf16 = std::iter::repeat_n(x, 256).sum();
        assert_eq!(total.to_f32(), 1.0);
    }

    #[test]
    fn ordering_follows_f32() {
        let a = Bf16::from_f32(-1.0);
        let b = Bf16::from_f32(2.0);
        assert!(a < b);
        assert!(Bf16::NAN.partial_cmp(&a).is_none());
    }

    #[test]
    fn slice_helpers_round_trip() {
        let values = [0.0f32, 1.0, -2.5, 100.0];
        let q = Bf16::quantize_slice(&values);
        let d = Bf16::dequantize_slice(&q);
        assert_eq!(d, values);
    }

    #[test]
    fn epsilon_is_two_to_minus_seven() {
        assert_eq!(Bf16::EPSILON.to_f32(), f32::powi(2.0, -7));
        assert_eq!((Bf16::ONE + Bf16::EPSILON).to_f32(), 1.0 + f32::powi(2.0, -7));
    }
}
