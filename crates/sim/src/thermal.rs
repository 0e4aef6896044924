//! Lumped thermal model and fan controller.
//!
//! §3.1: "To isolate the impact of temperature that can affect our results
//! … we also control the temperature by adjusting the CPU's fan speed
//! accordingly. We stabilize the temperature at 43°C, and thus, all
//! benchmarks complete their execution at the same temperature."
//!
//! The model is a single thermal node: `C·dT/dt = P − (T − T_amb)/R(fan)`,
//! where the fan controller adjusts the thermal resistance to steer the die
//! temperature towards the setpoint.

use crate::calib;

/// Ambient temperature around the board, °C.
const AMBIENT_C: f64 = 25.0;

/// Thermal capacitance of the die+spreader node, J/°C.
const THERMAL_CAPACITANCE: f64 = 12.0;

/// Thermal resistance range achievable by the fan, °C/W (min = full speed).
const R_MIN: f64 = 0.35;
const R_MAX: f64 = 3.0;

/// A single-node RC thermal model with a proportional fan controller.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ThermalModel {
    die_temp_c: f64,
    setpoint_c: f64,
    fan_level: f64, // 0.0 (off) .. 1.0 (full speed)
}

impl ThermalModel {
    /// A model starting at the paper's 43 °C setpoint.
    #[must_use]
    fn new() -> Self {
        Self::with_setpoint(calib::TEMP_SETPOINT_C)
    }

    /// A model regulating towards `setpoint_c`.
    #[must_use]
    pub(crate) fn with_setpoint(setpoint_c: f64) -> Self {
        ThermalModel {
            die_temp_c: setpoint_c,
            setpoint_c,
            fan_level: 0.5,
        }
    }

    /// Current die temperature, °C.
    #[must_use]
    pub(crate) fn die_temp_c(&self) -> f64 {
        self.die_temp_c
    }

    /// Advances the model by `dt_s` seconds while the chip dissipates
    /// `power_w` watts, and lets the fan controller react.
    pub(crate) fn step(&mut self, power_w: f64, dt_s: f64) {
        // Proportional fan control on the temperature error.
        let error = self.die_temp_c - self.setpoint_c;
        self.fan_level = (self.fan_level + 0.08 * error * dt_s.max(1e-3)).clamp(0.0, 1.0);
        let r = R_MAX + (R_MIN - R_MAX) * self.fan_level;
        let dt = (power_w - (self.die_temp_c - AMBIENT_C) / r) * dt_s / THERMAL_CAPACITANCE;
        self.die_temp_c += dt;
    }

    /// The critical-voltage shift (mV) induced by deviating from the
    /// characterization setpoint; zero when perfectly regulated (§3.1).
    #[must_use]
    pub(crate) fn vcrit_shift_mv(&self) -> f64 {
        (self.die_temp_c - calib::TEMP_SETPOINT_C) * calib::VCRIT_TEMP_SLOPE_MV_PER_C
    }
}

impl Default for ThermalModel {
    fn default() -> Self {
        ThermalModel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_to_setpoint_under_steady_load() {
        let mut t = ThermalModel::new();
        for _ in 0..40_000 {
            t.step(25.0, 0.05);
        }
        assert!(
            (t.die_temp_c() - t.setpoint_c).abs() < 1.5,
            "converged to {}",
            t.die_temp_c()
        );
    }

    #[test]
    fn heavier_load_spins_fan_harder() {
        let mut light = ThermalModel::new();
        let mut heavy = ThermalModel::new();
        for _ in 0..40_000 {
            light.step(8.0, 0.05);
            heavy.step(30.0, 0.05);
        }
        assert!(heavy.fan_level > light.fan_level);
    }

    #[test]
    fn regulated_die_has_negligible_vcrit_shift() {
        let mut t = ThermalModel::new();
        for _ in 0..40_000 {
            t.step(20.0, 0.05);
        }
        assert!(t.vcrit_shift_mv().abs() < 1.0);
    }

    #[test]
    fn hot_die_raises_vcrit() {
        let mut t = ThermalModel::with_setpoint(43.0);
        // Force the die hot by disabling time for the controller to react.
        for _ in 0..100 {
            t.step(200.0, 0.5);
        }
        assert!(t.die_temp_c() > 43.0);
        assert!(t.vcrit_shift_mv() > 0.0);
    }
}
