//! A Hamming SECDED (39,32) codec and a two-way interleaved 64-bit word
//! protector built from it.
//!
//! §6 of the paper recommends "stronger ECC codes … and more blocks
//! protected" so that SDC-prone behaviour transforms into corrected-error
//! behaviour. A standard industrial step up from per-64-bit SECDED(72,64)
//! is *interleaving*: protecting each 64-bit word as two SECDED(39,32)
//! codewords over the even and odd bits. Any double-bit error whose bits
//! fall in different interleave ways becomes two correctable single-bit
//! errors, and adjacent-bit doubles (the dominant multi-cell failure mode)
//! always split across ways.

use crate::secded::Codeword;
use crate::CheckOutcome;

/// Codeword bits of the (39,32) code.
const CODEWORD_BITS_32: u32 = 39;
/// Data bits per codeword.
const DATA_BITS_32: u32 = 32;
/// Hamming check bits (excluding overall parity).
const CHECK_BITS_32: u32 = 6;

fn is_check_position(pos: u32) -> bool {
    pos == 0 || pos.is_power_of_two()
}

fn data_position(data_bit: u32) -> u32 {
    debug_assert!(data_bit < DATA_BITS_32);
    let mut seen = 0;
    for pos in 1..CODEWORD_BITS_32 {
        if !is_check_position(pos) {
            if seen == data_bit {
                return pos;
            }
            seen += 1;
        }
    }
    unreachable!("fewer than 32 data positions in a 39-bit codeword")
}

/// A 39-bit SECDED codeword protecting 32 data bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Codeword32 {
    bits: u64,
}

/// Decode result of a [`Codeword32`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decoded32 {
    /// Clean; contains the data.
    Clean(u32),
    /// Single-bit error corrected; contains the repaired data.
    Corrected(u32),
    /// Double-bit error detected.
    DoubleError,
}

impl Decoded32 {
    /// The usable data, if any.
    #[must_use]
    fn data(&self) -> Option<u32> {
        match *self {
            Decoded32::Clean(d) | Decoded32::Corrected(d) => Some(d),
            Decoded32::DoubleError => None,
        }
    }
}

impl Codeword32 {
    /// Encodes 32 data bits.
    #[must_use]
    fn encode(data: u32) -> Self {
        let mut bits: u64 = 0;
        for b in 0..DATA_BITS_32 {
            if data >> b & 1 == 1 {
                bits |= 1u64 << data_position(b);
            }
        }
        for k in 0..CHECK_BITS_32 {
            let check_pos = 1u32 << k;
            let mut xor = 0u32;
            for pos in 1..CODEWORD_BITS_32 {
                if pos != check_pos && pos & check_pos != 0 && bits >> pos & 1 == 1 {
                    xor ^= 1;
                }
            }
            if xor == 1 {
                bits |= 1u64 << check_pos;
            }
        }
        if (bits >> 1).count_ones() % 2 == 1 {
            bits |= 1;
        }
        Codeword32 { bits }
    }

    /// Returns a copy with codeword position `pos` (0–38) flipped.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= 39`.
    #[must_use]
    fn with_flipped_position(&self, pos: u32) -> Self {
        assert!(pos < CODEWORD_BITS_32, "position out of range: {pos}");
        Codeword32 {
            bits: self.bits ^ (1u64 << pos),
        }
    }

    /// Returns a copy with *data* bit `bit` (0–31) flipped.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 32`.
    #[must_use]
    fn with_flipped_data_bit(&self, bit: u32) -> Self {
        assert!(bit < DATA_BITS_32, "data bit out of range: {bit}");
        self.with_flipped_position(data_position(bit))
    }

    fn data_unchecked(&self) -> u32 {
        let mut data = 0u32;
        for b in 0..DATA_BITS_32 {
            if self.bits >> data_position(b) & 1 == 1 {
                data |= 1u32 << b;
            }
        }
        data
    }

    fn syndrome(&self) -> u32 {
        let mut syndrome = 0u32;
        for k in 0..CHECK_BITS_32 {
            let check_pos = 1u32 << k;
            let mut xor = 0u32;
            for pos in 1..CODEWORD_BITS_32 {
                if pos & check_pos != 0 && self.bits >> pos & 1 == 1 {
                    xor ^= 1;
                }
            }
            if xor == 1 {
                syndrome |= check_pos;
            }
        }
        syndrome
    }

    /// Decodes, correcting a single-bit error.
    #[must_use]
    fn decode(&self) -> Decoded32 {
        let syndrome = self.syndrome();
        let parity_ok = self.bits.count_ones().is_multiple_of(2);
        match (syndrome, parity_ok) {
            (0, true) => Decoded32::Clean(self.data_unchecked()),
            (0, false) => Decoded32::Corrected(self.data_unchecked()),
            (s, false) if s < CODEWORD_BITS_32 => {
                Decoded32::Corrected(self.with_flipped_position(s).data_unchecked())
            }
            _ => Decoded32::DoubleError,
        }
    }
}

/// A 64-bit word protected as two interleaved SECDED(39,32) codewords:
/// even data bits in way 0, odd data bits in way 1.
///
/// ```
/// use margins_ecc::secded32::InterleavedWord;
/// use margins_ecc::CheckOutcome;
///
/// let data = 0xDEAD_BEEF_0BAD_F00D;
/// let w = InterleavedWord::encode(data);
/// // An *adjacent* double-bit flip is fully corrected:
/// let bad = w.with_flipped_data_bit(8).with_flipped_data_bit(9);
/// assert_eq!(bad.check_against(data), CheckOutcome::Corrected);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InterleavedWord {
    ways: [Codeword32; 2],
}

impl InterleavedWord {
    /// Encodes a 64-bit word into the two interleave ways.
    #[must_use]
    pub fn encode(data: u64) -> Self {
        let (mut even, mut odd) = (0u32, 0u32);
        for i in 0..32 {
            even |= (((data >> (2 * i)) & 1) as u32) << i;
            odd |= (((data >> (2 * i + 1)) & 1) as u32) << i;
        }
        InterleavedWord {
            ways: [Codeword32::encode(even), Codeword32::encode(odd)],
        }
    }

    /// Returns a copy with *data* bit `bit` (0–63) of the original word
    /// flipped (routed into the owning interleave way).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 64`.
    #[must_use]
    pub fn with_flipped_data_bit(&self, bit: u32) -> Self {
        assert!(bit < 64, "data bit out of range: {bit}");
        let way = (bit % 2) as usize;
        let mut ways = self.ways;
        ways[way] = ways[way].with_flipped_data_bit(bit / 2);
        InterleavedWord { ways }
    }

    /// Decodes both ways and classifies the reassembled word against a
    /// known-good reference, so that alias patterns from ≥3 flips in a way
    /// are labelled [`CheckOutcome::Undetected`].
    #[must_use]
    pub fn check_against(&self, reference: u64) -> CheckOutcome {
        let (a, b) = (self.ways[0].decode(), self.ways[1].decode());
        let (Some(even), Some(odd)) = (a.data(), b.data()) else {
            return CheckOutcome::Uncorrected;
        };
        let mut data = 0u64;
        for i in 0..32 {
            data |= u64::from(even >> i & 1) << (2 * i);
            data |= u64::from(odd >> i & 1) << (2 * i + 1);
        }
        match (a, b) {
            _ if data != reference => CheckOutcome::Undetected,
            (Decoded32::Clean(_), Decoded32::Clean(_)) => CheckOutcome::Clean,
            _ => CheckOutcome::Corrected,
        }
    }

    /// The outcome of reading a word whose data bits `flips` (a mask) were
    /// flipped, without constructing the codewords: each way follows
    /// [`Codeword::outcome_for_flips`] on its own bits, and the worse way
    /// decides.
    ///
    /// [`Codeword::outcome_for_flips`]: crate::secded::Codeword::outcome_for_flips
    #[must_use]
    pub fn outcome_for_flips(flips: u64) -> CheckOutcome {
        let even = Codeword::outcome_for_flips(flips & 0x5555_5555_5555_5555);
        let odd = Codeword::outcome_for_flips(flips & 0xAAAA_AAAA_AAAA_AAAA);
        match (even, odd) {
            (CheckOutcome::Undetected, _) | (_, CheckOutcome::Undetected) => {
                CheckOutcome::Undetected
            }
            (CheckOutcome::Uncorrected, _) | (_, CheckOutcome::Uncorrected) => {
                CheckOutcome::Uncorrected
            }
            (CheckOutcome::Clean, CheckOutcome::Clean) => CheckOutcome::Clean,
            _ => CheckOutcome::Corrected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLES: [u32; 6] = [0, 1, u32::MAX, 0xDEAD_BEEF, 0xAAAA_AAAA, 0x5555_5555];

    #[test]
    fn roundtrip_is_clean() {
        for &v in &SAMPLES {
            assert_eq!(Codeword32::encode(v).decode(), Decoded32::Clean(v));
        }
    }

    #[test]
    fn every_single_flip_corrected() {
        for &v in &SAMPLES {
            let cw = Codeword32::encode(v);
            for pos in 0..CODEWORD_BITS_32 {
                match cw.with_flipped_position(pos).decode() {
                    Decoded32::Corrected(d) => assert_eq!(d, v, "pos {pos}"),
                    other => panic!("pos {pos}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn exhaustive_double_flips_detected() {
        let cw = Codeword32::encode(0x1357_9BDF);
        for p1 in 0..CODEWORD_BITS_32 {
            for p2 in (p1 + 1)..CODEWORD_BITS_32 {
                assert_eq!(
                    cw.with_flipped_position(p1)
                        .with_flipped_position(p2)
                        .decode(),
                    Decoded32::DoubleError,
                    "({p1},{p2})"
                );
            }
        }
    }

    #[test]
    fn interleaved_roundtrip() {
        for v in [0u64, u64::MAX, 0x0123_4567_89AB_CDEF] {
            let w = InterleavedWord::encode(v);
            assert_eq!(w.check_against(v), CheckOutcome::Clean);
        }
    }

    #[test]
    fn interleaving_corrects_all_adjacent_doubles() {
        let v = 0xFACE_FEED_0BAD_F00D;
        let w = InterleavedWord::encode(v);
        for bit in 0..63 {
            let bad = w.with_flipped_data_bit(bit).with_flipped_data_bit(bit + 1);
            assert_eq!(
                bad.check_against(v),
                CheckOutcome::Corrected,
                "adjacent pair at {bit}"
            );
        }
    }

    #[test]
    fn same_way_doubles_are_detected_not_corrected() {
        let v = 42u64;
        let w = InterleavedWord::encode(v);
        // Bits 0 and 2 both land in the even way.
        let bad = w.with_flipped_data_bit(0).with_flipped_data_bit(2);
        assert_eq!(bad.check_against(v), CheckOutcome::Uncorrected);
    }

    #[test]
    fn plain_secded64_cannot_correct_adjacent_doubles_but_interleaved_can() {
        // The §6 upgrade in one assertion.
        let v = 0x0F0F_F0F0_1234_5678u64;
        let plain = crate::secded::Codeword::encode(v)
            .with_flipped_data_bit(10)
            .with_flipped_data_bit(11);
        assert_eq!(plain.decode(), crate::secded::Decoded::DoubleError);
        let inter = InterleavedWord::encode(v)
            .with_flipped_data_bit(10)
            .with_flipped_data_bit(11);
        assert_eq!(inter.check_against(v), CheckOutcome::Corrected);
    }

    #[test]
    fn outcome_for_flips_matrix() {
        use CheckOutcome::*;
        // Bit 2k lands in the even way, bit 2k+1 in the odd way.
        assert_eq!(InterleavedWord::outcome_for_flips(0), Clean);
        assert_eq!(InterleavedWord::outcome_for_flips(0b1), Corrected);
        assert_eq!(InterleavedWord::outcome_for_flips(0b11), Corrected);
        assert_eq!(InterleavedWord::outcome_for_flips(0b101), Uncorrected);
        assert_eq!(InterleavedWord::outcome_for_flips(0b111), Uncorrected);
        assert_eq!(InterleavedWord::outcome_for_flips(0b10101), Undetected);
    }
}
