//! Error-detection and error-correction codecs used by the simulated cache
//! hierarchy of `margins-sim`.
//!
//! The APM X-Gene 2 protects its L1 instruction and data caches with
//! **parity** (detect-only) and its L2/L3 caches with **SECDED ECC**
//! (single-error-correct, double-error-detect); see Table 2 of
//! Papadimitriou et al., MICRO-50 2017. This crate provides both codecs as
//! real, self-contained implementations:
//!
//! * [`parity`] — even parity over 64-bit words,
//! * [`secded`] — a Hamming SECDED (72,64) code: 64 data bits protected by
//!   7 Hamming check bits plus one overall parity bit,
//! * [`secded32`] — a Hamming SECDED (39,32) code and a two-way interleaved
//!   64-bit word protector built on it — the "stronger ECC" upgrade the
//!   paper's §6 recommends (adjacent double-bit errors become correctable).
//!
//! # Examples
//!
//! ```
//! use margins_ecc::secded::Codeword;
//! use margins_ecc::CheckOutcome;
//!
//! let cw = Codeword::encode(0xDEAD_BEEF_CAFE_F00D);
//! // Flip one data bit in flight…
//! let corrupted = cw.with_flipped_data_bit(17);
//! // …and SECDED transparently corrects it.
//! assert_eq!(
//!     corrupted.check_against(0xDEAD_BEEF_CAFE_F00D),
//!     CheckOutcome::Corrected
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod parity;
pub mod secded;
pub mod secded32;

/// Outcome of checking a protected memory word, in the vocabulary the Linux
/// EDAC driver (and hence the characterization framework) uses.
///
/// `Corrected` corresponds to a *CE* (corrected error) report, while
/// `Uncorrected` corresponds to a *UE* (uncorrected error) report in Table 3
/// of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckOutcome {
    /// No error was detected in the word.
    Clean,
    /// An error was detected and transparently corrected (SECDED single-bit).
    Corrected,
    /// An error was detected but could not be corrected (parity hit, or a
    /// SECDED double-bit error).
    Uncorrected,
    /// An error is present but the code could not even detect it (three or
    /// more flipped bits aliasing to a valid or single-error syndrome).
    ///
    /// Undetected corruption is what ultimately surfaces as a *silent data
    /// corruption* at program level.
    Undetected,
}
