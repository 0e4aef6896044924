//! The management processors of the standby power domain (§2.1).
//!
//! * **SLIMpro** — "monitors system sensors, configures system attributes
//!   (e.g. regulate supply voltage, change DRAM refresh rate etc.) and
//!   accesses all error reporting infrastructure, using an integrated I2C
//!   controller". System software (here: the characterization framework)
//!   regulates voltages, reads sensors and drains EDAC reports through it.
//! * **PMpro** — "provides advanced power management capabilities, such as
//!   multiple power planes and clock gating, thermal protection circuits,
//!   ACPI power management states and external power throttling support".
//!
//! Both are thin validated command interfaces over the [`System`] state; the
//! standby domain is never scaled, so they keep working while the cores are
//! being crashed.

use crate::freq::Megahertz;
use crate::system::System;
use crate::topology::PmdId;
use crate::volt::{Millivolts, SupplyError};
use std::fmt;

/// Error raised by an invalid frequency request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrequencyError {
    /// The rejected frequency.
    pub requested: Megahertz,
}

impl fmt::Display for FrequencyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "requested {} is not a valid PMD frequency (300MHz steps, 300–2400MHz)",
            self.requested
        )
    }
}

impl std::error::Error for FrequencyError {}

/// The SLIMpro mailbox interface.
pub struct SlimPro<'a> {
    sys: &'a mut System,
}

impl<'a> SlimPro<'a> {
    pub(crate) fn new(sys: &'a mut System) -> Self {
        SlimPro { sys }
    }

    /// Regulates the shared PMD rail (all four PMDs, §2.1) in 5 mV steps.
    ///
    /// # Errors
    ///
    /// Returns a [`SupplyError`] for off-step or above-nominal requests.
    pub fn set_pmd_voltage(&mut self, v: Millivolts) -> Result<(), SupplyError> {
        self.sys.supplies.set_pmd(v)?;
        self.sys.log_console(&format!("slimpro: pmd rail -> {v}"));
        self.sys.observe(|| margins_trace::TraceEvent::RailSet {
            rail: "pmd".to_owned(),
            mv: v.get(),
        });
        Ok(())
    }

    /// Regulates the PCP/SoC rail in 5 mV steps.
    ///
    /// # Errors
    ///
    /// Returns a [`SupplyError`] for off-step or above-nominal requests.
    pub fn set_soc_voltage(&mut self, v: Millivolts) -> Result<(), SupplyError> {
        self.sys.supplies.set_soc(v)?;
        self.sys.log_console(&format!("slimpro: soc rail -> {v}"));
        self.sys.observe(|| margins_trace::TraceEvent::RailSet {
            rail: "soc".to_owned(),
            mv: v.get(),
        });
        Ok(())
    }

    /// Sets one PMD's clock (PMDs have private frequencies, §2.1).
    ///
    /// # Errors
    ///
    /// Returns a [`FrequencyError`] when `f` is not a 300 MHz multiple in
    /// the supported range.
    pub fn set_pmd_frequency(&mut self, pmd: PmdId, f: Megahertz) -> Result<(), FrequencyError> {
        if !f.is_valid_pmd_frequency() {
            return Err(FrequencyError { requested: f });
        }
        self.sys.pmd_freq[pmd.index()] = f;
        self.sys
            .log_console(&format!("slimpro: {pmd} clock -> {f}"));
        Ok(())
    }

    /// Reads the die-temperature sensor, °C.
    #[must_use]
    pub fn read_die_temperature_c(&self) -> f64 {
        self.sys.thermal.die_temp_c()
    }
}

/// The PMpro power-management interface.
pub struct PmPro<'a> {
    sys: &'a mut System,
}

impl<'a> PmPro<'a> {
    pub(crate) fn new(sys: &'a mut System) -> Self {
        PmPro { sys }
    }

    /// Reprograms the thermal-protection setpoint the fan controller
    /// regulates to (the paper pins it to 43 °C during characterization).
    pub fn set_temperature_setpoint(&mut self, setpoint_c: f64) {
        self.sys.thermal = crate::thermal::ThermalModel::with_setpoint(setpoint_c);
        self.sys
            .log_console(&format!("pmpro: fan setpoint -> {setpoint_c:.1}C"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corner::{ChipSpec, Corner};
    use crate::system::SystemConfig;

    fn sys() -> System {
        System::new(ChipSpec::new(Corner::Ttt, 0), SystemConfig::default())
    }

    #[test]
    fn voltage_regulation_roundtrip() {
        let mut s = sys();
        let mut sp = s.slimpro_mut();
        sp.set_pmd_voltage(Millivolts::new(905)).unwrap();
        sp.set_soc_voltage(Millivolts::new(930)).unwrap();
        assert_eq!(s.supplies().pmd().get(), 905);
        assert_eq!(s.supplies().soc().get(), 930);
    }

    #[test]
    fn invalid_voltage_rejected() {
        let mut s = sys();
        let mut sp = s.slimpro_mut();
        assert!(sp.set_pmd_voltage(Millivolts::new(903)).is_err());
        assert!(sp.set_pmd_voltage(Millivolts::new(990)).is_err());
    }

    #[test]
    fn frequency_regulation_validates() {
        let mut s = sys();
        {
            let mut sp = s.slimpro_mut();
            sp.set_pmd_frequency(PmdId::new(1), Megahertz::new(1200))
                .unwrap();
            let err = sp
                .set_pmd_frequency(PmdId::new(1), Megahertz::new(1000))
                .unwrap_err();
            assert_eq!(err.requested, Megahertz::new(1000));
        }
        assert_eq!(s.pmd_frequency(PmdId::new(1)), Megahertz::new(1200));
        assert_eq!(s.pmd_frequency(PmdId::new(0)), crate::freq::MAX_FREQ);
    }

    #[test]
    fn temperature_sensor_readable() {
        let mut s = sys();
        let t = s.slimpro_mut().read_die_temperature_c();
        assert!(t > 20.0 && t < 80.0);
    }

    #[test]
    fn pmpro_power_telemetry() {
        let mut s = sys();
        {
            let mut pp = s.pmpro_mut();
            pp.set_temperature_setpoint(50.0);
        }
        assert!(s.console().iter().any(|l| l.contains("pmpro")));
    }
}
