//! The 64 KB Shared Buffer of a CENT CXL device.
//!
//! The Shared Buffer (Figure 5) is the rendezvous point of the device:
//! PIM channels and PNM accelerators see it as a file of 2048 × 256-bit
//! registers, while the RISC-V cores see it as byte-addressable memory
//! accessed with 16-bit loads/stores in a dedicated 64 KB region (§4.2).

use cent_types::consts::SHARED_BUFFER_SLOTS;
use cent_types::{Beat, Bf16, CentError, CentResult, SbSlot, ZERO_BEAT};

/// The device Shared Buffer: both a 256-bit register file and a byte
/// addressable 64 KB memory.
///
/// # Examples
///
/// ```
/// use cent_pnm::SharedBuffer;
/// use cent_types::{Bf16, SbSlot, ZERO_BEAT};
///
/// let mut sb = SharedBuffer::new();
/// let mut beat = ZERO_BEAT;
/// beat[3] = Bf16::from_f32(2.5);
/// sb.write(SbSlot(7), &beat).unwrap();
/// // Lane 3 of slot 7 is bytes 7*32 + 3*2 in the byte view.
/// assert_eq!(sb.read_u16(7 * 32 + 6).unwrap(), Bf16::from_f32(2.5).to_bits());
/// ```
#[derive(Debug, Clone)]
pub struct SharedBuffer {
    slots: Vec<Beat>,
}

impl Default for SharedBuffer {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedBuffer {
    /// Creates a zeroed Shared Buffer.
    pub fn new() -> Self {
        SharedBuffer { slots: vec![ZERO_BEAT; SHARED_BUFFER_SLOTS] }
    }

    /// Number of 256-bit slots (2048).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The `n` consecutive slots from `slot` on, checked as one range.
    fn range(&self, slot: SbSlot, n: usize) -> CentResult<std::ops::Range<usize>> {
        let end = slot.index() + n;
        if end > self.slots.len() {
            // Name the first slot out of range, as a slot-by-slot walk would.
            let first = slot.index().max(self.slots.len());
            return Err(CentError::AddressOutOfRange(format!("shared buffer SB[{first}]")));
        }
        Ok(slot.index()..end)
    }

    /// The `n` consecutive slots starting at `slot`.
    ///
    /// # Errors
    ///
    /// Returns an error if the range exceeds the buffer.
    pub fn slots(&self, slot: SbSlot, n: usize) -> CentResult<&[Beat]> {
        Ok(&self.slots[self.range(slot, n)?])
    }

    /// The `n` consecutive slots starting at `slot`, for writing.
    ///
    /// # Errors
    ///
    /// Returns an error if the range exceeds the buffer.
    pub fn slots_mut(&mut self, slot: SbSlot, n: usize) -> CentResult<&mut [Beat]> {
        let range = self.range(slot, n)?;
        Ok(&mut self.slots[range])
    }

    /// Reads a 256-bit slot.
    ///
    /// # Errors
    ///
    /// Returns an error if `slot` is out of range.
    pub fn read(&self, slot: SbSlot) -> CentResult<Beat> {
        Ok(self.slots(slot, 1)?[0])
    }

    /// Writes a 256-bit slot.
    ///
    /// # Errors
    ///
    /// Returns an error if `slot` is out of range.
    pub fn write(&mut self, slot: SbSlot, beat: &Beat) -> CentResult<()> {
        self.slots_mut(slot, 1)?[0] = *beat;
        Ok(())
    }

    /// Reads `n` consecutive slots starting at `slot` as a flat BF16 vector.
    ///
    /// # Errors
    ///
    /// Returns an error if the range exceeds the buffer.
    pub fn read_vec(&self, slot: SbSlot, n: usize) -> CentResult<Vec<Bf16>> {
        Ok(self.slots(slot, n)?.concat())
    }

    /// Writes a flat BF16 vector into consecutive slots starting at `slot`,
    /// zero-padding the final beat.
    ///
    /// # Errors
    ///
    /// Returns an error if the vector does not fit.
    pub fn write_vec(&mut self, slot: SbSlot, values: &[Bf16]) -> CentResult<usize> {
        let beats = self.slots_mut(slot, values.len().div_ceil(16))?;
        for (beat, chunk) in beats.iter_mut().zip(values.chunks(16)) {
            *beat = ZERO_BEAT;
            beat[..chunk.len()].copy_from_slice(chunk);
        }
        Ok(beats.len())
    }

    /// The (slot, lane) a RISC-V halfword access at byte `addr` touches.
    fn halfword(&self, addr: u32) -> CentResult<(usize, usize)> {
        if !addr.is_multiple_of(2) {
            return Err(CentError::AddressOutOfRange(format!(
                "misaligned shared-buffer halfword access at {addr:#x}"
            )));
        }
        let slot = (addr / 32) as usize;
        if slot >= self.slots.len() {
            return Err(CentError::AddressOutOfRange(format!("shared buffer byte {addr:#x}")));
        }
        Ok((slot, ((addr % 32) / 2) as usize))
    }

    /// 16-bit load at byte address `addr` (RISC-V view).
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range or misaligned addresses.
    pub fn read_u16(&self, addr: u32) -> CentResult<u16> {
        let (slot, lane) = self.halfword(addr)?;
        Ok(self.slots[slot][lane].to_bits())
    }

    /// 16-bit store at byte address `addr` (RISC-V view).
    ///
    /// # Errors
    ///
    /// Returns an error for out-of-range or misaligned addresses.
    pub fn write_u16(&mut self, addr: u32, value: u16) -> CentResult<()> {
        let (slot, lane) = self.halfword(addr)?;
        self.slots[slot][lane] = Bf16::from_bits(value);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_and_byte_views_alias() {
        let mut sb = SharedBuffer::new();
        sb.write_u16(0, Bf16::from_f32(1.5).to_bits()).unwrap();
        sb.write_u16(2, Bf16::from_f32(-2.0).to_bits()).unwrap();
        let beat = sb.read(SbSlot(0)).unwrap();
        assert_eq!(beat[0].to_f32(), 1.5);
        assert_eq!(beat[1].to_f32(), -2.0);
    }

    #[test]
    fn vector_round_trip_with_padding() {
        let mut sb = SharedBuffer::new();
        let v: Vec<Bf16> = (0..20).map(|i| Bf16::from_f32(i as f32)).collect();
        let beats = sb.write_vec(SbSlot(4), &v).unwrap();
        assert_eq!(beats, 2);
        let back = sb.read_vec(SbSlot(4), 2).unwrap();
        assert_eq!(back[19].to_f32(), 19.0);
        assert_eq!(back[20].to_f32(), 0.0); // padding
    }

    #[test]
    fn bounds_are_enforced() {
        let mut sb = SharedBuffer::new();
        assert!(sb.read(SbSlot(2048)).is_err());
        assert!(sb.write_u16(64 * 1024, 0).is_err());
        assert!(sb.read_u16(1).is_err()); // misaligned
    }

    #[test]
    fn capacity_matches_paper() {
        let sb = SharedBuffer::new();
        assert_eq!(sb.slot_count() * 32, 64 * 1024);
    }
}
