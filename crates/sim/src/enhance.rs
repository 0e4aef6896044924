//! The §6 design enhancements, as simulatable chip options.
//!
//! "Undervolting characterization studies such as the one we report in this
//! paper can be used to provide hardware design recommendations for
//! enhancements if the system (or its future revisions) is to be used in
//! scaled voltage conditions":
//!
//! * **Stronger error protection** (§6a) — interleaved SECDED(39,32) on
//!   every array, including the L1s (which ship with parity only). Weak-cell
//!   double-bit patterns become corrected errors; L1 hits on dirty lines no
//!   longer lose data.
//! * **Hardware detectors** (§6b) — skitter/monitor-style circuits watching
//!   the critical paths. A detected timing fault is retried instead of
//!   corrupting state: SDC behaviour transforms into corrected-error
//!   behaviour (with a retry penalty), enabling the ECC-proxy voltage
//!   speculation of [9, 10] that the stock X-Gene 2 cannot support.
//! * **Adaptive clocking** (the §4.4 footnote, citing reference 38) — stretches the
//!   clock through droop events, removing the di/dt component of the
//!   effective critical voltage at a small throughput cost.
//!
//! (The third §6 recommendation — finer-grained voltage domains — is an
//! energy-model property; see `margins-energy`'s per-PMD-rail staircase.)

/// Optional hardware enhancements of a simulated chip revision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Enhancements {
    /// §6a: interleaved SECDED(39,32) on all cache arrays (replacing L1
    /// parity and plain per-64-bit SECDED on L2/L3).
    pub extended_ecc: bool,
    /// §6b: datapath timing-fault detectors with retry.
    pub residue_checks: bool,
    /// §4.4 footnote: adaptive clocking suppresses droop-induced margin
    /// loss at a throughput cost.
    pub adaptive_clocking: bool,
}

impl Enhancements {
    /// The stock X-Gene 2: no enhancements.
    #[must_use]
    pub fn stock() -> Self {
        Enhancements::default()
    }

    /// Every §6 enhancement enabled.
    #[must_use]
    pub fn all() -> Self {
        Enhancements {
            extended_ecc: true,
            residue_checks: true,
            adaptive_clocking: true,
        }
    }

    /// Whether any enhancement is active.
    #[must_use]
    pub fn any(self) -> bool {
        self.extended_ecc || self.residue_checks || self.adaptive_clocking
    }
}

/// Fraction of datapath timing faults the §6b detectors catch (residue and
/// parity predictors do not cover every path).
pub(crate) const RESIDUE_COVERAGE: f64 = 0.85;

/// Cycle penalty of one detected-and-retried op.
pub(crate) const RETRY_PENALTY_CYCLES: f64 = 24.0;

/// Throughput tax of adaptive clocking per activity block, cycles per mV of
/// suppressed droop.
pub(crate) const ADAPTIVE_CLOCK_STRETCH_CYCLES_PER_MV: f64 = 1.5;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stock_has_nothing() {
        assert!(!Enhancements::stock().any());
    }

    #[test]
    fn all_has_everything() {
        let e = Enhancements::all();
        assert!(e.extended_ecc && e.residue_checks && e.adaptive_clocking);
        assert!(e.any());
    }

    #[test]
    fn coverage_is_a_probability() {
        assert!((0.0..=1.0).contains(&RESIDUE_COVERAGE));
    }
}
