//! Voltage types and the X-Gene 2 power-domain layout of §2.1.
//!
//! The chip exposes three independently regulated power domains:
//!
//! * **PMD** — all four processor modules share one supply; nominal 980 mV,
//!   downward-scalable in 5 mV steps,
//! * **PCP/SoC** — L3, DRAM controllers, central switch, I/O bridge; nominal
//!   950 mV, independently scalable in 5 mV steps,
//! * **Standby** — SLIMpro/PMpro management processors (never scaled here).

use std::fmt;

/// A supply voltage in millivolts.
///
/// A newtype so that voltages, frequencies and severity values can never be
/// mixed up in the fault-model math.
///
/// ```
/// use margins_sim::volt::Millivolts;
/// let v = Millivolts::new(980);
/// assert_eq!(v.down_steps(2).get(), 970);
/// assert_eq!(format!("{v}"), "980mV");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Millivolts(u32);

impl Millivolts {
    /// Creates a voltage from a raw millivolt count.
    #[must_use]
    pub const fn new(mv: u32) -> Self {
        Millivolts(mv)
    }

    /// The raw millivolt value.
    #[must_use]
    pub const fn get(self) -> u32 {
        self.0
    }

    /// The value as `f64`, for model math.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        f64::from(self.0)
    }

    /// Steps the voltage *down* by `n` regulator steps
    /// ([`VOLTAGE_STEP_MV`] each), saturating at zero.
    #[must_use]
    pub fn down_steps(self, n: u32) -> Self {
        Millivolts(self.0.saturating_sub(n * VOLTAGE_STEP_MV))
    }

    /// Steps the voltage *up* by `n` regulator steps.
    #[must_use]
    pub fn up_steps(self, n: u32) -> Self {
        Millivolts(self.0 + n * VOLTAGE_STEP_MV)
    }

    /// Relative value against a nominal voltage (`self / nominal`).
    #[must_use]
    pub fn ratio_to(self, nominal: Millivolts) -> f64 {
        self.as_f64() / nominal.as_f64()
    }
}

impl fmt::Display for Millivolts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}mV", self.0)
    }
}

impl From<Millivolts> for f64 {
    fn from(v: Millivolts) -> f64 {
        v.as_f64()
    }
}

/// Regulator granularity: the SLIMpro changes domain voltages in 5 mV steps
/// (§2.1 of the paper).
pub const VOLTAGE_STEP_MV: u32 = 5;

/// Nominal PMD-domain supply (§3.2: "the nominal voltage for the X-Gene 2 is
/// 980mV").
pub const PMD_NOMINAL: Millivolts = Millivolts::new(980);

/// Nominal PCP/SoC-domain supply (§2.1: "beginning from 950mV").
pub const SOC_NOMINAL: Millivolts = Millivolts::new(950);

/// The regulated state of the chip's supplies: one shared PMD rail and one
/// PCP/SoC rail, per §2.1 (the coarse-grained domain design the paper's §6
/// critiques).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SupplyState {
    pmd: Millivolts,
    soc: Millivolts,
}

impl SupplyState {
    /// Both rails at nominal.
    #[must_use]
    pub fn nominal() -> Self {
        SupplyState {
            pmd: PMD_NOMINAL,
            soc: SOC_NOMINAL,
        }
    }

    /// Current PMD-rail voltage.
    #[must_use]
    pub fn pmd(self) -> Millivolts {
        self.pmd
    }

    /// Current PCP/SoC-rail voltage.
    #[must_use]
    pub(crate) fn soc(self) -> Millivolts {
        self.soc
    }

    /// Sets the PMD rail.
    ///
    /// # Errors
    ///
    /// Returns [`SupplyError::AboveNominal`] when raising above nominal (the
    /// regulator only scales downwards, §2.1) and [`SupplyError::OffStep`]
    /// when the request is not a multiple of the 5 mV step.
    pub fn set_pmd(&mut self, v: Millivolts) -> Result<(), SupplyError> {
        Self::validate(v, PMD_NOMINAL)?;
        self.pmd = v;
        Ok(())
    }

    /// Sets the PCP/SoC rail; same constraints as [`SupplyState::set_pmd`].
    ///
    /// # Errors
    ///
    /// See [`SupplyState::set_pmd`].
    pub(crate) fn set_soc(&mut self, v: Millivolts) -> Result<(), SupplyError> {
        Self::validate(v, SOC_NOMINAL)?;
        self.soc = v;
        Ok(())
    }

    fn validate(v: Millivolts, nominal: Millivolts) -> Result<(), SupplyError> {
        if v > nominal {
            return Err(SupplyError::AboveNominal {
                requested: v,
                nominal,
            });
        }
        if !v.get().is_multiple_of(VOLTAGE_STEP_MV) {
            return Err(SupplyError::OffStep { requested: v });
        }
        Ok(())
    }
}

impl Default for SupplyState {
    fn default() -> Self {
        SupplyState::nominal()
    }
}

/// Error raised by invalid supply-regulation requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupplyError {
    /// The requested voltage exceeds the domain's nominal supply.
    AboveNominal {
        /// Voltage that was requested.
        requested: Millivolts,
        /// The domain's nominal voltage.
        nominal: Millivolts,
    },
    /// The requested voltage is not a multiple of the 5 mV regulator step.
    OffStep {
        /// Voltage that was requested.
        requested: Millivolts,
    },
}

impl fmt::Display for SupplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SupplyError::AboveNominal { requested, nominal } => write!(
                f,
                "requested {requested} exceeds the nominal supply {nominal}"
            ),
            SupplyError::OffStep { requested } => write!(
                f,
                "requested {requested} is not a multiple of the {VOLTAGE_STEP_MV}mV regulator step"
            ),
        }
    }
}

impl std::error::Error for SupplyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_arithmetic() {
        let v = Millivolts::new(980);
        assert_eq!(v.down_steps(1).get(), 975);
        assert_eq!(v.down_steps(4).get(), 960);
        assert_eq!(v.up_steps(2).get(), 990);
        assert_eq!(Millivolts::new(3).down_steps(1).get(), 0);
    }

    #[test]
    fn supply_state_accepts_valid_downscale() {
        let mut s = SupplyState::nominal();
        s.set_pmd(Millivolts::new(900)).unwrap();
        s.set_soc(Millivolts::new(905)).unwrap();
        assert_eq!(s.pmd().get(), 900);
        assert_eq!(s.soc().get(), 905);
    }

    #[test]
    fn supply_state_rejects_upscale_and_offstep() {
        let mut s = SupplyState::nominal();
        assert!(matches!(
            s.set_pmd(Millivolts::new(985)),
            Err(SupplyError::AboveNominal { .. })
        ));
        assert!(matches!(
            s.set_pmd(Millivolts::new(902)),
            Err(SupplyError::OffStep { .. })
        ));
        // State untouched after errors.
        assert_eq!(s.pmd(), PMD_NOMINAL);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Millivolts::new(760).to_string(), "760mV");
        let err = SupplyError::OffStep {
            requested: Millivolts::new(902),
        };
        assert!(err.to_string().contains("902mV"));
    }

    #[test]
    fn ratio_to_nominal() {
        let half = Millivolts::new(490);
        assert!((half.ratio_to(PMD_NOMINAL) - 0.5).abs() < 1e-12);
    }
}
