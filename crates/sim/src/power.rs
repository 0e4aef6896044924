//! Chip power model and energy accounting.
//!
//! Dynamic power follows the classic `C·V²·f·activity` law per PMD (all
//! PMDs share one voltage but have private frequencies, §2.1); leakage
//! scales with the corner (TFF leaks ~1.65×, TSS ~0.55×, §3) and weakly
//! with temperature. The absolute scale is calibrated so a fully loaded
//! chip at nominal V/F sits just under the 35 W TDP of Table 2.

use crate::corner::Corner;
use crate::freq::{Megahertz, MAX_FREQ};
use crate::topology::{NUM_CORES, NUM_PMDS};
use crate::volt::{Millivolts, PMD_NOMINAL, SOC_NOMINAL};

/// Dynamic power of the whole PMD domain at nominal V/F with all cores at
/// full activity, watts.
const PMD_DYNAMIC_FULL_W: f64 = 22.0;

/// Leakage power of the PMD domain at nominal voltage and 43 °C for the TTT
/// corner, watts.
const PMD_LEAKAGE_NOMINAL_W: f64 = 5.0;

/// PCP/SoC domain power at nominal SoC voltage and saturated memory
/// activity, watts.
const SOC_FULL_W: f64 = 6.5;

/// Idle floor of the SoC domain (clocks gated, refresh only), watts.
const SOC_IDLE_FRACTION: f64 = 0.35;

/// Temperature coefficient of leakage (per °C around 43 °C).
const LEAKAGE_TEMP_COEFF: f64 = 0.02;

/// The chip's operating point, as the power model sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OperatingPoint {
    /// PMD-rail voltage.
    pub pmd_voltage: Millivolts,
    /// PCP/SoC-rail voltage.
    pub soc_voltage: Millivolts,
    /// Per-PMD clock frequency.
    pub pmd_freq: [Megahertz; NUM_PMDS],
    /// Per-core switching activity in `[0, 1]`.
    pub core_activity: [f64; NUM_CORES],
    /// Memory-system activity in `[0, 1]`.
    pub mem_activity: f64,
    /// Die temperature, °C.
    pub die_temp_c: f64,
}

impl OperatingPoint {
    /// Nominal V/F, everything idle, regulated temperature.
    #[must_use]
    pub(crate) fn idle_nominal() -> Self {
        OperatingPoint {
            pmd_voltage: PMD_NOMINAL,
            soc_voltage: SOC_NOMINAL,
            pmd_freq: [MAX_FREQ; NUM_PMDS],
            core_activity: [0.0; NUM_CORES],
            mem_activity: 0.0,
            die_temp_c: crate::calib::TEMP_SETPOINT_C,
        }
    }
}

/// The power model for a chip of a given corner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PowerModel {
    corner: Corner,
}

impl PowerModel {
    /// A power model for the given process corner.
    #[must_use]
    pub(crate) fn new(corner: Corner) -> Self {
        PowerModel { corner }
    }

    /// Dynamic power of the PMD domain, watts.
    #[must_use]
    fn pmd_dynamic_watts(self, op: &OperatingPoint) -> f64 {
        let v2 = op.pmd_voltage.ratio_to(PMD_NOMINAL).powi(2);
        let per_pmd = PMD_DYNAMIC_FULL_W / NUM_PMDS as f64;
        let mut total = 0.0;
        for (pmd, freq) in op.pmd_freq.iter().enumerate() {
            let act = (op.core_activity[pmd * 2] + op.core_activity[pmd * 2 + 1]) / 2.0;
            total += per_pmd * v2 * freq.ratio_to_max() * act;
        }
        total
    }

    /// Leakage power of the PMD domain, watts.
    #[must_use]
    fn pmd_leakage_watts(self, op: &OperatingPoint) -> f64 {
        let v2 = op.pmd_voltage.ratio_to(PMD_NOMINAL).powi(2);
        let temp = 1.0 + LEAKAGE_TEMP_COEFF * (op.die_temp_c - crate::calib::TEMP_SETPOINT_C);
        PMD_LEAKAGE_NOMINAL_W * self.corner.leakage_multiplier() * v2 * temp.max(0.2)
    }

    /// Power of the PCP/SoC domain, watts.
    #[must_use]
    fn soc_watts(self, op: &OperatingPoint) -> f64 {
        let v2 = op.soc_voltage.ratio_to(SOC_NOMINAL).powi(2);
        SOC_FULL_W * v2 * (SOC_IDLE_FRACTION + (1.0 - SOC_IDLE_FRACTION) * op.mem_activity)
    }

    /// Total chip power, watts.
    #[must_use]
    pub(crate) fn total_watts(self, op: &OperatingPoint) -> f64 {
        self.pmd_dynamic_watts(op) + self.pmd_leakage_watts(op) + self.soc_watts(op)
    }
}

/// Integrates power over simulated time to report per-run energy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyMeter {
    joules: f64,
    seconds: f64,
}

impl EnergyMeter {
    /// A zeroed meter.
    #[must_use]
    pub(crate) fn new() -> Self {
        EnergyMeter::default()
    }

    /// Accumulates `watts` drawn for `dt_s` seconds.
    pub(crate) fn accumulate(&mut self, watts: f64, dt_s: f64) {
        self.joules += watts * dt_s;
        self.seconds += dt_s;
    }

    /// Total accumulated energy, joules.
    #[must_use]
    pub fn joules(self) -> f64 {
        self.joules
    }

    /// Total accumulated simulated time, seconds.
    #[must_use]
    pub fn seconds(self) -> f64 {
        self.seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_load() -> OperatingPoint {
        let mut op = OperatingPoint::idle_nominal();
        op.core_activity = [1.0; NUM_CORES];
        op.mem_activity = 1.0;
        op
    }

    #[test]
    fn full_load_inside_tdp() {
        let w = PowerModel::new(Corner::Ttt).total_watts(&full_load());
        assert!(w < crate::topology::MAX_TDP_WATTS, "{w}");
        assert!(w > 25.0, "{w}");
    }

    #[test]
    fn undervolting_reduces_power_quadratically() {
        let model = PowerModel::new(Corner::Ttt);
        let mut op = full_load();
        let nominal = model.pmd_dynamic_watts(&op);
        op.pmd_voltage = Millivolts::new(490); // half of 980
        let half = model.pmd_dynamic_watts(&op);
        assert!((half / nominal - 0.25).abs() < 1e-9);
    }

    #[test]
    fn frequency_scales_dynamic_linearly() {
        let model = PowerModel::new(Corner::Ttt);
        let mut op = full_load();
        let nominal = model.pmd_dynamic_watts(&op);
        op.pmd_freq = [Megahertz::new(1200); NUM_PMDS];
        let half = model.pmd_dynamic_watts(&op);
        assert!((half / nominal - 0.5).abs() < 1e-9);
    }

    #[test]
    fn corner_leakage_ordering_visible_in_watts() {
        let op = full_load();
        let ttt = PowerModel::new(Corner::Ttt).pmd_leakage_watts(&op);
        let tff = PowerModel::new(Corner::Tff).pmd_leakage_watts(&op);
        let tss = PowerModel::new(Corner::Tss).pmd_leakage_watts(&op);
        assert!(tff > ttt && ttt > tss);
    }

    #[test]
    fn soc_domain_independent_of_pmd_voltage() {
        let model = PowerModel::new(Corner::Ttt);
        let mut op = full_load();
        let before = model.soc_watts(&op);
        op.pmd_voltage = Millivolts::new(760);
        assert_eq!(model.soc_watts(&op), before);
    }

    #[test]
    fn energy_meter_integrates() {
        let mut m = EnergyMeter::new();
        m.accumulate(10.0, 2.0);
        m.accumulate(20.0, 1.0);
        assert!((m.joules() - 40.0).abs() < 1e-12);
        assert!((m.seconds() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn idle_chip_draws_only_leakage_and_soc_floor() {
        let model = PowerModel::new(Corner::Ttt);
        let op = OperatingPoint::idle_nominal();
        assert_eq!(model.pmd_dynamic_watts(&op), 0.0);
        assert!(model.total_watts(&op) > 0.0);
    }
}
