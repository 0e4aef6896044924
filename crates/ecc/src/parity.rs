//! Even-parity protection for 64-bit words, modelling the X-Gene 2 L1
//! instruction/data cache protection (parity protected, per Table 2 of the
//! paper).
//!
//! Parity detects any odd number of flipped bits but corrects nothing: a
//! parity hit on a clean line can be repaired by refetching from the next
//! level, while a hit on a dirty line is an uncorrected error.

use crate::CheckOutcome;

/// Computes the even-parity bit of a 64-bit word.
///
/// The returned bit is chosen so that the total number of set bits in
/// `(word, bit)` is even.
#[must_use]
fn parity64(word: u64) -> bool {
    word.count_ones() % 2 == 1
}

/// A 64-bit word stored together with its even-parity bit, as a parity
/// protected SRAM array would hold it.
///
/// ```
/// use margins_ecc::{parity::ParityWord, CheckOutcome};
///
/// let mut w = ParityWord::store(42);
/// assert_eq!(w.check_against(42), CheckOutcome::Clean);
/// w.flip_data_bit(3);
/// assert_eq!(w.check_against(42), CheckOutcome::Uncorrected);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParityWord {
    data: u64,
    parity: bool,
}

impl ParityWord {
    /// Stores `data` with a freshly computed parity bit.
    #[must_use]
    pub fn store(data: u64) -> Self {
        ParityWord {
            data,
            parity: parity64(data),
        }
    }

    /// Flips data bit `bit` (0–63) in place, simulating a cell failure.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 64`.
    pub fn flip_data_bit(&mut self, bit: u32) {
        assert!(bit < 64, "data bit index out of range: {bit}");
        self.data ^= 1u64 << bit;
    }

    /// Checks the stored word against its parity bit.
    ///
    /// Returns [`CheckOutcome::Clean`] when parity matches, and
    /// [`CheckOutcome::Uncorrected`] otherwise — parity can never correct.
    /// An *even* number of flips is undetectable by parity; this method
    /// cannot distinguish that case from a clean word (by construction), so
    /// callers that injected a known number of faults should use
    /// [`ParityWord::check_against`] to obtain the full outcome.
    #[must_use]
    fn check(&self) -> CheckOutcome {
        if parity64(self.data) == self.parity {
            CheckOutcome::Clean
        } else {
            CheckOutcome::Uncorrected
        }
    }

    /// Checks against a known-good reference value, classifying undetectable
    /// corruption (even numbers of bit flips) as [`CheckOutcome::Undetected`].
    #[must_use]
    pub fn check_against(&self, reference: u64) -> CheckOutcome {
        match (self.data == reference, self.check()) {
            (true, CheckOutcome::Clean) => CheckOutcome::Clean,
            (false, CheckOutcome::Clean) => CheckOutcome::Undetected,
            (_, outcome) => outcome,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_word_checks_clean() {
        for v in [0u64, 1, u64::MAX, 0xAAAA_AAAA_AAAA_AAAA] {
            assert_eq!(ParityWord::store(v).check(), CheckOutcome::Clean);
        }
    }

    #[test]
    fn single_flip_is_detected_never_corrected() {
        for bit in 0..64 {
            let mut w = ParityWord::store(0x0123_4567_89AB_CDEF);
            w.flip_data_bit(bit);
            assert_eq!(w.check(), CheckOutcome::Uncorrected, "bit {bit}");
        }
    }

    #[test]
    fn parity_bit_flip_is_detected() {
        let mut w = ParityWord::store(7);
        w.parity = !w.parity;
        assert_eq!(w.check(), CheckOutcome::Uncorrected);
    }

    #[test]
    fn double_flip_is_undetected() {
        let reference = 0xFEED_FACE_0000_1111;
        let mut w = ParityWord::store(reference);
        w.flip_data_bit(3);
        w.flip_data_bit(40);
        assert_eq!(w.check(), CheckOutcome::Clean, "parity alone cannot see it");
        assert_eq!(w.check_against(reference), CheckOutcome::Undetected);
    }

    #[test]
    fn check_against_matches_check_for_detected_errors() {
        let reference = 99;
        let mut w = ParityWord::store(reference);
        w.flip_data_bit(0);
        assert_eq!(w.check_against(reference), CheckOutcome::Uncorrected);
    }

    #[test]
    fn parity64_matches_count_ones() {
        for v in [0u64, 1, 2, 3, u64::MAX, 0x8000_0000_0000_0001] {
            assert_eq!(parity64(v), v.count_ones() % 2 == 1);
        }
    }
}
