//! Clock frequencies and the X-Gene 2 clocking rules of §2.1/§3.2.
//!
//! Each PMD can run at 300 MHz–2.4 GHz in 300 MHz steps. Ratios relative to
//! the 2.4 GHz source greater than 1/2 are implemented by *clock skipping*
//! (the critical-path timing still sees 2.4 GHz edges), while the 1/2 ratio
//! and below are implemented by *clock division* (relaxed edges). The paper
//! therefore characterizes only 2.4 GHz and 1.2 GHz: every frequency above
//! 1.2 GHz behaves like 2.4 GHz and every frequency at or below behaves like
//! 1.2 GHz. [`TimingRegime`] names the two, and each clock maps to one.

use std::fmt;

/// A clock frequency in megahertz.
///
/// ```
/// use margins_sim::freq::Megahertz;
/// assert!(Megahertz::new(1500).is_valid_pmd_frequency());
/// assert!(!Megahertz::new(1000).is_valid_pmd_frequency());
/// assert_eq!(Megahertz::new(1200).ratio_to_max(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Megahertz(u32);

/// Clock source of the PMD domain: 2.4 GHz (§2.1).
pub const MAX_FREQ: Megahertz = Megahertz(2400);
/// Lowest supported PMD frequency: 300 MHz (§2.1).
const MIN_FREQ: Megahertz = Megahertz(300);
/// PMD frequency granularity: 300 MHz steps (§2.1).
const FREQ_STEP: u32 = 300;

impl Megahertz {
    /// Creates a frequency from a raw megahertz count.
    #[must_use]
    pub const fn new(mhz: u32) -> Self {
        Megahertz(mhz)
    }

    /// The raw megahertz value.
    #[must_use]
    pub const fn get(self) -> u32 {
        self.0
    }

    /// The value as `f64` for model math.
    #[must_use]
    pub(crate) fn as_f64(self) -> f64 {
        f64::from(self.0)
    }

    /// Whether this is a frequency the PMD clock generator can produce
    /// (a multiple of 300 MHz between 300 MHz and 2.4 GHz).
    #[must_use]
    pub fn is_valid_pmd_frequency(self) -> bool {
        self >= MIN_FREQ && self <= MAX_FREQ && self.0.is_multiple_of(FREQ_STEP)
    }

    /// The effective timing regime under the clock-skipping/division rule of
    /// §3.2.
    #[must_use]
    pub(crate) fn timing_regime(self) -> TimingRegime {
        if self.0 > MAX_FREQ.0 / 2 {
            TimingRegime::FullSpeed
        } else {
            TimingRegime::Divided
        }
    }

    /// Frequency relative to the 2.4 GHz source.
    #[must_use]
    pub fn ratio_to_max(self) -> f64 {
        self.as_f64() / MAX_FREQ.as_f64()
    }
}

impl fmt::Display for Megahertz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}MHz", self.0)
    }
}

/// The two effective critical-path timing regimes of §3.2.
///
/// "Clock frequencies greater than 1.2 GHz have similar behavior as in
/// 2.4 GHz, and frequencies less than 1.2 GHz have similar behavior as in
/// 1.2 GHz. For this reason, we haven't characterized the chips in the
/// intermediate frequencies."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimingRegime {
    /// Ratio > 1/2, implemented via clock *skipping*: paths are timed by the
    /// full-rate 2.4 GHz clock and see the tight margins of Figure 3/4.
    FullSpeed,
    /// Ratio ≤ 1/2, implemented via clock *division*: relaxed edges; the
    /// whole chip shares a uniform, much lower Vmin (760 mV on the TTT part)
    /// with crash-only behaviour below it (§3.2).
    Divided,
}

impl fmt::Display for TimingRegime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            TimingRegime::FullSpeed => "full-speed (clock-skipping)",
            TimingRegime::Divided => "divided (clock-division)",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validity_of_steps() {
        assert!(Megahertz::new(300).is_valid_pmd_frequency());
        assert!(Megahertz::new(2400).is_valid_pmd_frequency());
        assert!(!Megahertz::new(2500).is_valid_pmd_frequency());
        assert!(!Megahertz::new(250).is_valid_pmd_frequency());
        assert!(!Megahertz::new(1000).is_valid_pmd_frequency());
    }

    #[test]
    fn regime_boundary_is_half_rate() {
        assert_eq!(
            Megahertz::new(2400).timing_regime(),
            TimingRegime::FullSpeed
        );
        assert_eq!(
            Megahertz::new(1500).timing_regime(),
            TimingRegime::FullSpeed
        );
        assert_eq!(Megahertz::new(1200).timing_regime(), TimingRegime::Divided);
        assert_eq!(Megahertz::new(300).timing_regime(), TimingRegime::Divided);
    }

    #[test]
    fn ratio_to_max() {
        assert!((Megahertz::new(1200).ratio_to_max() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display() {
        assert_eq!(Megahertz::new(2400).to_string(), "2400MHz");
        assert!(TimingRegime::Divided.to_string().contains("division"));
    }
}
