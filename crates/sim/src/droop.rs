//! Supply-droop (voltage-noise) model.
//!
//! Workload-dependent di/dt noise transiently depresses the effective
//! supply seen by the logic, which is equivalent to raising the critical
//! voltage of the paths switching at that moment (the voltage-emergency
//! literature the paper cites in §7: Reddi et al., Gupta et al., and the
//! ARM power-delivery studies [39–42]).
//!
//! The model tracks an exponentially weighted moving average of switching
//! activity per 64-op block; the droop contributed to the fault model is
//! `DROOP_MAX_MV · ewma`, so bursty high-activity phases see a few mV less
//! margin than quiet phases.

use crate::calib;

/// Number of ops per activity-accounting block.
const BLOCK_OPS: u32 = 64;

/// Tracks switching activity and converts it into an effective droop.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DroopModel {
    ewma: f64,
    block_accum: f64,
    block_ops: u32,
}

impl DroopModel {
    /// A quiescent droop tracker.
    #[must_use]
    pub(crate) fn new() -> Self {
        DroopModel {
            ewma: 0.0,
            block_accum: 0.0,
            block_ops: 0,
        }
    }

    /// Records one op with switching weight `activity` (0.0–1.0-ish; the
    /// op-class power weights of the machine). Completes a block every
    /// [`BLOCK_OPS`] ops and folds it into the EWMA.
    ///
    /// Returns `true` when a block boundary was crossed (the caller may then
    /// refresh cached fault intensities). Every op passes here, so this
    /// compiles into the op that issues it.
    #[inline(always)]
    pub(crate) fn record_activity(&mut self, activity: f64) -> bool {
        self.block_accum += activity;
        self.block_ops += 1;
        if self.block_ops >= BLOCK_OPS {
            let mean = self.block_accum / f64::from(self.block_ops);
            self.ewma =
                calib::DROOP_EWMA_ALPHA * mean + (1.0 - calib::DROOP_EWMA_ALPHA) * self.ewma;
            self.block_accum = 0.0;
            self.block_ops = 0;
            true
        } else {
            false
        }
    }

    /// The current droop contribution (mV) to the effective critical
    /// voltage.
    #[must_use]
    pub(crate) fn droop_mv(&self) -> f64 {
        calib::DROOP_MAX_MV * self.ewma.clamp(0.0, 1.0)
    }
}

impl Default for DroopModel {
    fn default() -> Self {
        DroopModel::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiescent_has_zero_droop() {
        assert_eq!(DroopModel::new().droop_mv(), 0.0);
    }

    #[test]
    fn block_boundary_every_64_ops() {
        let mut d = DroopModel::new();
        let mut boundaries = 0;
        for _ in 0..256 {
            if d.record_activity(0.5) {
                boundaries += 1;
            }
        }
        assert_eq!(boundaries, 4);
    }

    #[test]
    fn sustained_activity_converges_to_proportional_droop() {
        let mut d = DroopModel::new();
        for _ in 0..64 * 200 {
            d.record_activity(0.8);
        }
        let expected = calib::DROOP_MAX_MV * 0.8;
        assert!(
            (d.droop_mv() - expected).abs() < 0.05,
            "droop {}",
            d.droop_mv()
        );
    }

    #[test]
    fn heavier_activity_gives_more_droop() {
        let mut light = DroopModel::new();
        let mut heavy = DroopModel::new();
        for _ in 0..64 * 50 {
            light.record_activity(0.2);
            heavy.record_activity(0.9);
        }
        assert!(heavy.droop_mv() > light.droop_mv());
    }

    #[test]
    fn droop_is_bounded_by_max() {
        let mut d = DroopModel::new();
        for _ in 0..64 * 100 {
            d.record_activity(5.0); // out-of-range activity is clamped
        }
        assert!(d.droop_mv() <= calib::DROOP_MAX_MV + 1e-12);
    }
}
