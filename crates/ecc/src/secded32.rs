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

use crate::secded::{Decoded, ExtendedHamming};
use crate::CheckOutcome;

/// The (39,32) code: the extended Hamming construction of SECDED(72,64)
/// at 32 data bits, with six check bits.
const SECDED_39_32: ExtendedHamming = ExtendedHamming {
    data_bits: 32,
    codeword_bits: 39,
};

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
    /// The even and the odd way's codewords.
    ways: [u128; 2],
}

impl InterleavedWord {
    /// Encodes a 64-bit word into the two interleave ways.
    #[must_use]
    pub fn encode(data: u64) -> Self {
        let (mut even, mut odd) = (0u64, 0u64);
        for i in 0..32 {
            even |= (data >> (2 * i) & 1) << i;
            odd |= (data >> (2 * i + 1) & 1) << i;
        }
        InterleavedWord {
            ways: [SECDED_39_32.encode(even), SECDED_39_32.encode(odd)],
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
        ways[way] = SECDED_39_32.flip(ways[way], SECDED_39_32.data_position(bit / 2));
        InterleavedWord { ways }
    }

    /// Decodes both ways and classifies the reassembled word against a
    /// known-good reference, so that alias patterns from ≥3 flips in a way
    /// are labelled [`CheckOutcome::Undetected`].
    #[must_use]
    pub fn check_against(&self, reference: u64) -> CheckOutcome {
        let [a, b] = self.ways.map(|way| SECDED_39_32.decode(way));
        let (Some(even), Some(odd)) = (a.data(), b.data()) else {
            return CheckOutcome::Uncorrected;
        };
        let mut data = 0u64;
        for i in 0..32 {
            data |= (even >> i & 1) << (2 * i);
            data |= (odd >> i & 1) << (2 * i + 1);
        }
        match (a, b) {
            _ if data != reference => CheckOutcome::Undetected,
            (Decoded::Clean(_), Decoded::Clean(_)) => CheckOutcome::Clean,
            _ => CheckOutcome::Corrected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLES: [u32; 6] = [0, 1, u32::MAX, 0xDEAD_BEEF, 0xAAAA_AAAA, 0x5555_5555];

    const CODE: ExtendedHamming = SECDED_39_32;

    #[test]
    fn roundtrip_is_clean() {
        for &v in &SAMPLES {
            let v = u64::from(v);
            assert_eq!(CODE.decode(CODE.encode(v)), Decoded::Clean(v));
        }
    }

    #[test]
    fn every_single_flip_corrected() {
        for &v in &SAMPLES {
            let cw = CODE.encode(u64::from(v));
            for pos in 0..CODE.codeword_bits {
                assert_eq!(
                    CODE.decode(CODE.flip(cw, pos)),
                    Decoded::Corrected {
                        data: u64::from(v),
                        position: pos
                    },
                    "pos {pos}"
                );
            }
        }
    }

    #[test]
    fn exhaustive_double_flips_detected() {
        let cw = CODE.encode(0x1357_9BDF);
        for p1 in 0..CODE.codeword_bits {
            for p2 in (p1 + 1)..CODE.codeword_bits {
                assert_eq!(
                    CODE.decode(CODE.flip(CODE.flip(cw, p1), p2)),
                    Decoded::DoubleError,
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
}
