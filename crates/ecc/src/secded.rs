//! A Hamming SECDED (72,64) codec: 64 data bits protected by 7 Hamming
//! check bits plus one overall parity bit, exactly the class of code used by
//! the X-Gene 2 L2/L3 arrays ("ECC Protected" in Table 2 of the paper).
//!
//! The codeword layout follows the classic extended Hamming construction:
//! codeword position 0 holds the overall parity bit, positions that are
//! powers of two (1, 2, 4, 8, 16, 32, 64) hold the Hamming check bits, and
//! the remaining 64 positions (in increasing order) hold the data bits.
//! One private construction, `ExtendedHamming`, builds it at any width; the
//! (39,32) code of [`crate::secded32`] is the same construction at 32 data
//! bits.
//!
//! * single flipped bit  → detected *and corrected* (a **CE**),
//! * double flipped bits → detected, not corrected (a **UE**),
//! * ≥3 flipped bits     → decoded like any other pattern: a syndrome
//!   the decoder flags is a **UE**, and one it takes for a clean word or a
//!   single-bit error yields wrong data, which
//!   [`Codeword::check_against`] reports as undetected (an SDC).

use crate::CheckOutcome;

/// Number of bits in a full codeword.
pub const CODEWORD_BITS: u32 = 72;
/// Number of protected data bits per codeword.
pub const DATA_BITS: u32 = 64;

/// The (72,64) code.
const SECDED_72_64: ExtendedHamming = ExtendedHamming {
    data_bits: DATA_BITS,
    codeword_bits: CODEWORD_BITS,
};

/// The extended Hamming construction at one width: position 0 holds the
/// overall parity bit, the powers of two hold the Hamming check bits, and
/// the data bits fill the other positions in increasing order. A codeword
/// is held in the low bits of a `u128`; bit `i` is codeword position `i`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExtendedHamming {
    /// Protected data bits.
    pub(crate) data_bits: u32,
    /// Data bits, check bits and the overall parity bit.
    pub(crate) codeword_bits: u32,
}

impl ExtendedHamming {
    /// The data bits' codeword positions, in data-bit order.
    fn data_positions(self) -> impl Iterator<Item = u32> {
        (1..self.codeword_bits).filter(|&pos| !pos.is_power_of_two())
    }

    /// The codeword position of data bit `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is not a data bit of this code.
    pub(crate) fn data_position(self, bit: u32) -> u32 {
        assert!(bit < self.data_bits, "data bit index out of range: {bit}");
        self.data_positions()
            .nth(bit as usize)
            .expect("every data bit has a position")
    }

    /// Encodes the low `data_bits` bits of `data`.
    pub(crate) fn encode(self, data: u64) -> u128 {
        let mut bits = self
            .data_positions()
            .enumerate()
            .fold(0u128, |bits, (bit, pos)| {
                bits | u128::from(data >> bit & 1) << pos
            });
        // Each check bit at position 2^k covers the positions whose index
        // has bit k set, so the data's own syndrome is the check bits that
        // make every covered XOR zero.
        let syndrome = self.syndrome(bits);
        let mut check = 1;
        while check < self.codeword_bits {
            bits |= u128::from(syndrome & check != 0) << check;
            check <<= 1;
        }
        // The overall parity bit makes the whole codeword even.
        bits | u128::from(bits.count_ones() % 2 == 1)
    }

    /// `bits` with codeword position `pos` flipped.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is outside the codeword.
    pub(crate) fn flip(self, bits: u128, pos: u32) -> u128 {
        assert!(
            pos < self.codeword_bits,
            "codeword position out of range: {pos}"
        );
        bits ^ 1 << pos
    }

    /// The data bits, without any checking (the raw array view).
    pub(crate) fn data(self, bits: u128) -> u64 {
        self.data_positions()
            .enumerate()
            .fold(0, |data, (bit, pos)| {
                data | u64::from(bits >> pos & 1 == 1) << bit
            })
    }

    /// The Hamming syndrome: the XOR of the positions of all set bits past
    /// position 0. Zero means "no Hamming-visible error".
    fn syndrome(self, bits: u128) -> u32 {
        (1..self.codeword_bits)
            .filter(|&pos| bits >> pos & 1 == 1)
            .fold(0, |syndrome, pos| syndrome ^ pos)
    }

    /// Decodes a codeword, correcting a single-bit error if present.
    ///
    /// | syndrome | overall parity | verdict |
    /// |----------|----------------|---------|
    /// | 0        | ok             | clean   |
    /// | 0        | bad            | parity-bit error (corrected) |
    /// | ≠0       | bad            | single-bit error at `syndrome` (corrected) |
    /// | ≠0       | ok             | double-bit error (uncorrectable) |
    pub(crate) fn decode(self, bits: u128) -> Decoded {
        let parity_ok = bits.count_ones().is_multiple_of(2);
        match (self.syndrome(bits), parity_ok) {
            (0, true) => Decoded::Clean(self.data(bits)),
            (0, false) => Decoded::Corrected {
                data: self.data(bits),
                position: 0,
            },
            (s, false) if s < self.codeword_bits => Decoded::Corrected {
                data: self.data(bits ^ 1 << s),
                position: s,
            },
            // Syndrome pointing outside the codeword (possible for ≥2 flips)
            // or nonzero syndrome with good parity: uncorrectable.
            _ => Decoded::DoubleError,
        }
    }
}

/// A stored 72-bit SECDED codeword.
///
/// The codeword is held in the low 72 bits of a `u128`; bit `i` of the
/// integer is codeword position `i`.
///
/// ```
/// use margins_ecc::secded::{Codeword, Decoded};
///
/// let cw = Codeword::encode(12345);
/// assert_eq!(cw.decode(), Decoded::Clean(12345));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Codeword {
    bits: u128,
}

/// Result of decoding a [`Codeword`] (or one way of an
/// [`InterleavedWord`](crate::secded32::InterleavedWord)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded {
    /// The codeword was clean; contains the data.
    Clean(u64),
    /// A single-bit error was corrected; contains the repaired data and the
    /// codeword position that was repaired.
    Corrected {
        /// The repaired 64-bit data value.
        data: u64,
        /// Codeword position of the corrected bit.
        position: u32,
    },
    /// A double-bit error was detected; the data cannot be trusted.
    DoubleError,
}

impl Decoded {
    /// The usable data, if any.
    pub(crate) fn data(self) -> Option<u64> {
        match self {
            Decoded::Clean(data) | Decoded::Corrected { data, .. } => Some(data),
            Decoded::DoubleError => None,
        }
    }
}

impl Codeword {
    /// Encodes 64 data bits into a 72-bit SECDED codeword.
    #[must_use]
    pub fn encode(data: u64) -> Self {
        Codeword {
            bits: SECDED_72_64.encode(data),
        }
    }

    /// Returns a copy with codeword position `pos` (0–71) flipped.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= 72`.
    #[must_use]
    pub fn with_flipped_position(&self, pos: u32) -> Self {
        Codeword {
            bits: SECDED_72_64.flip(self.bits, pos),
        }
    }

    /// Returns a copy with *data* bit `bit` (0–63) flipped.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 64`.
    #[must_use]
    pub fn with_flipped_data_bit(&self, bit: u32) -> Self {
        self.with_flipped_position(SECDED_72_64.data_position(bit))
    }

    /// Extracts the 64 data bits without any checking (the raw array view).
    #[must_use]
    pub fn data_unchecked(&self) -> u64 {
        SECDED_72_64.data(self.bits)
    }

    /// Decodes the stored codeword, correcting a single-bit error if
    /// present: a nonzero syndrome with even overall parity, or one that
    /// points outside the codeword, is a [`Decoded::DoubleError`].
    #[must_use]
    pub fn decode(&self) -> Decoded {
        SECDED_72_64.decode(self.bits)
    }

    /// Decodes and classifies against a known-good reference, so that alias
    /// patterns from ≥3 flips are labelled [`CheckOutcome::Undetected`].
    #[must_use]
    pub fn check_against(&self, reference: u64) -> CheckOutcome {
        match self.decode() {
            Decoded::Clean(d) if d == reference => CheckOutcome::Clean,
            Decoded::Clean(_) => CheckOutcome::Undetected,
            Decoded::Corrected { data, .. } if data == reference => CheckOutcome::Corrected,
            Decoded::Corrected { .. } => CheckOutcome::Undetected,
            Decoded::DoubleError => CheckOutcome::Uncorrected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLES: [u64; 8] = [
        0,
        1,
        u64::MAX,
        0xDEAD_BEEF_CAFE_F00D,
        0xAAAA_AAAA_AAAA_AAAA,
        0x5555_5555_5555_5555,
        0x8000_0000_0000_0001,
        0x0123_4567_89AB_CDEF,
    ];

    #[test]
    fn data_positions_are_distinct_and_nonshared() {
        let mut seen = std::collections::HashSet::new();
        for b in 0..DATA_BITS {
            let pos = SECDED_72_64.data_position(b);
            assert!(
                pos != 0 && !pos.is_power_of_two(),
                "data bit {b} landed on a check position"
            );
            assert!(seen.insert(pos), "duplicate codeword position {pos}");
        }
        assert_eq!(seen.len(), DATA_BITS as usize);
    }

    #[test]
    fn roundtrip_is_clean() {
        for &v in &SAMPLES {
            let cw = Codeword::encode(v);
            assert_eq!(cw.decode(), Decoded::Clean(v));
            assert_eq!(SECDED_72_64.syndrome(cw.bits), 0);
        }
    }

    #[test]
    fn every_single_data_bit_flip_is_corrected() {
        for &v in &SAMPLES {
            let cw = Codeword::encode(v);
            for bit in 0..DATA_BITS {
                let bad = cw.with_flipped_data_bit(bit);
                match bad.decode() {
                    Decoded::Corrected { data, .. } => assert_eq!(data, v, "bit {bit}"),
                    other => panic!("bit {bit}: expected correction, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn every_single_position_flip_is_corrected() {
        let v = 0xFACE_FEED_0BAD_F00D;
        let cw = Codeword::encode(v);
        for pos in 0..CODEWORD_BITS {
            let bad = cw.with_flipped_position(pos);
            match bad.decode() {
                Decoded::Corrected { data, position } => {
                    assert_eq!(data, v);
                    assert_eq!(position, pos);
                }
                other => panic!("pos {pos}: expected correction, got {other:?}"),
            }
        }
    }

    #[test]
    fn exhaustive_double_flips_are_detected_not_corrected() {
        // Exhaustive over all 72*71/2 = 2556 double-flip patterns.
        let v = 0x1357_9BDF_2468_ACE0;
        let cw = Codeword::encode(v);
        for p1 in 0..CODEWORD_BITS {
            for p2 in (p1 + 1)..CODEWORD_BITS {
                let bad = cw.with_flipped_position(p1).with_flipped_position(p2);
                assert_eq!(
                    bad.decode(),
                    Decoded::DoubleError,
                    "double flip ({p1},{p2}) not flagged"
                );
            }
        }
    }

    #[test]
    fn check_against_classifies_clean_and_corrected() {
        let v = 424_242;
        let cw = Codeword::encode(v);
        assert_eq!(cw.check_against(v), CheckOutcome::Clean);
        assert_eq!(
            cw.with_flipped_data_bit(5).check_against(v),
            CheckOutcome::Corrected
        );
        assert_eq!(
            cw.with_flipped_position(1)
                .with_flipped_position(2)
                .check_against(v),
            CheckOutcome::Uncorrected
        );
    }

    #[test]
    fn triple_flip_never_silently_returns_wrong_clean_from_syndrome_zero_path() {
        // A triple flip either decodes as a (wrong) "correction" or a double
        // error; it must never produce Decoded::Clean with wrong data unless
        // the pattern aliases exactly to another codeword, which requires
        // flipping at least the code distance (4) bits.
        let v = 77;
        let cw = Codeword::encode(v);
        for p1 in 0..8 {
            for p2 in (p1 + 1)..16 {
                for p3 in (p2 + 1)..24 {
                    let bad = cw
                        .with_flipped_position(p1)
                        .with_flipped_position(p2)
                        .with_flipped_position(p3);
                    if let Decoded::Clean(d) = bad.decode() {
                        panic!("triple flip decoded clean: ({p1},{p2},{p3}) -> {d}");
                    }
                }
            }
        }
    }
}
