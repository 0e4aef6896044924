//! A Hamming SECDED (72,64) codec: 64 data bits protected by 7 Hamming
//! check bits plus one overall parity bit, exactly the class of code used by
//! the X-Gene 2 L2/L3 arrays ("ECC Protected" in Table 2 of the paper).
//!
//! The codeword layout follows the classic extended Hamming construction:
//! codeword position 0 holds the overall parity bit, positions that are
//! powers of two (1, 2, 4, 8, 16, 32, 64) hold the Hamming check bits, and
//! the remaining 64 positions (in increasing order) hold the data bits.
//!
//! * single flipped bit  → detected *and corrected* (a **CE**),
//! * double flipped bits → detected, not corrected (a **UE**),
//! * ≥3 flipped bits     → may alias; the codec reports its best guess and
//!   the fault model treats aliased patterns as silent corruption.

use crate::CheckOutcome;

/// Number of bits in a full codeword.
pub const CODEWORD_BITS: u32 = 72;
/// Number of protected data bits per codeword.
pub const DATA_BITS: u32 = 64;
/// Number of Hamming check bits (excluding the overall parity bit).
const CHECK_BITS: u32 = 7;

/// Returns `true` if codeword position `pos` holds a check bit
/// (position 0 = overall parity, powers of two = Hamming bits).
#[must_use]
fn is_check_position(pos: u32) -> bool {
    pos == 0 || pos.is_power_of_two()
}

/// Maps data bit index (0–63) to its codeword position (one of the 64
/// non-check positions in 1..72, in increasing order).
#[must_use]
fn data_position(data_bit: u32) -> u32 {
    debug_assert!(data_bit < DATA_BITS);
    // Precomputed at first use: positions 3,5,6,7,9,..,71 skipping powers of 2.
    let mut seen = 0;
    for pos in 1..CODEWORD_BITS {
        if !is_check_position(pos) {
            if seen == data_bit {
                return pos;
            }
            seen += 1;
        }
    }
    unreachable!("fewer than 64 data positions in a 72-bit codeword")
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

/// Result of decoding a [`Codeword`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded {
    /// The codeword was clean; contains the data.
    Clean(u64),
    /// A single-bit error was corrected; contains the repaired data and the
    /// codeword position that was repaired.
    Corrected {
        /// The repaired 64-bit data value.
        data: u64,
        /// Codeword position (0–71) of the corrected bit.
        position: u32,
    },
    /// A double-bit error was detected; the data cannot be trusted.
    DoubleError,
}

impl Decoded {}

impl Codeword {
    /// Encodes 64 data bits into a 72-bit SECDED codeword.
    #[must_use]
    pub fn encode(data: u64) -> Self {
        let mut bits: u128 = 0;
        // Scatter the data bits into the non-check positions.
        for b in 0..DATA_BITS {
            if data >> b & 1 == 1 {
                bits |= 1u128 << data_position(b);
            }
        }
        // Each Hamming check bit at position 2^k covers the positions whose
        // index has bit k set; choose it to make the covered XOR zero.
        for k in 0..CHECK_BITS {
            let check_pos = 1u32 << k;
            let mut xor = 0u32;
            for pos in 1..CODEWORD_BITS {
                if pos != check_pos && pos & check_pos != 0 && bits >> pos & 1 == 1 {
                    xor ^= 1;
                }
            }
            if xor == 1 {
                bits |= 1u128 << check_pos;
            }
        }
        // Overall parity over positions 1..72 goes into position 0, making
        // the whole codeword have even parity.
        let ones = (bits >> 1).count_ones();
        if ones % 2 == 1 {
            bits |= 1;
        }
        Codeword { bits }
    }

    /// Returns a copy with codeword position `pos` (0–71) flipped.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= 72`.
    #[must_use]
    pub fn with_flipped_position(&self, pos: u32) -> Self {
        assert!(pos < CODEWORD_BITS, "codeword position out of range: {pos}");
        Codeword {
            bits: self.bits ^ (1u128 << pos),
        }
    }

    /// Returns a copy with *data* bit `bit` (0–63) flipped.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 64`.
    #[must_use]
    pub fn with_flipped_data_bit(&self, bit: u32) -> Self {
        assert!(bit < DATA_BITS, "data bit index out of range: {bit}");
        self.with_flipped_position(data_position(bit))
    }

    /// Extracts the 64 data bits without any checking (the raw array view).
    #[must_use]
    pub fn data_unchecked(&self) -> u64 {
        let mut data = 0u64;
        for b in 0..DATA_BITS {
            if self.bits >> data_position(b) & 1 == 1 {
                data |= 1u64 << b;
            }
        }
        data
    }

    /// Computes the Hamming syndrome: XOR of the positions of all bits that
    /// disagree with the check bits. Zero means "no Hamming-visible error".
    #[must_use]
    fn syndrome(&self) -> u32 {
        let mut syndrome = 0u32;
        for k in 0..CHECK_BITS {
            let check_pos = 1u32 << k;
            let mut xor = 0u32;
            for pos in 1..CODEWORD_BITS {
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

    /// `true` when the whole 72-bit word has even parity (as encoded).
    #[must_use]
    fn overall_parity_ok(&self) -> bool {
        self.bits.count_ones().is_multiple_of(2)
    }

    /// Decodes the stored codeword, correcting a single-bit error if present.
    ///
    /// Decode logic of the extended Hamming code:
    ///
    /// | syndrome | overall parity | verdict |
    /// |----------|----------------|---------|
    /// | 0        | ok             | clean   |
    /// | 0        | bad            | parity-bit error (corrected) |
    /// | ≠0       | bad            | single-bit error at `syndrome` (corrected) |
    /// | ≠0       | ok             | double-bit error (uncorrectable) |
    #[must_use]
    pub fn decode(&self) -> Decoded {
        let syndrome = self.syndrome();
        let parity_ok = self.overall_parity_ok();
        match (syndrome, parity_ok) {
            (0, true) => Decoded::Clean(self.data_unchecked()),
            (0, false) => Decoded::Corrected {
                data: self.data_unchecked(),
                position: 0,
            },
            (s, false) if s < CODEWORD_BITS => {
                let repaired = self.with_flipped_position(s);
                Decoded::Corrected {
                    data: repaired.data_unchecked(),
                    position: s,
                }
            }
            // Syndrome pointing outside the codeword (possible for ≥2 flips)
            // or nonzero syndrome with good parity: uncorrectable.
            _ => Decoded::DoubleError,
        }
    }

    /// The outcome of reading a codeword whose data bits `flips` (a mask)
    /// were flipped, by flip count alone: one flip is corrected, two are
    /// detected, and three or more are treated as undetected because they
    /// may alias to a clean or single-error syndrome.
    #[must_use]
    pub fn outcome_for_flips(flips: u64) -> CheckOutcome {
        match flips.count_ones() {
            0 => CheckOutcome::Clean,
            1 => CheckOutcome::Corrected,
            2 => CheckOutcome::Uncorrected,
            _ => CheckOutcome::Undetected,
        }
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
            let pos = data_position(b);
            assert!(
                !is_check_position(pos),
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
            assert_eq!(cw.syndrome(), 0);
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
