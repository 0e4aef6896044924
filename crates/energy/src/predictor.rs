//! The online voltage predictor of §4.4/§5.
//!
//! "Therefore, having knowledge about the severity below the safe Vmin for
//! each workload, the predictor can decide if it is possible to be more
//! aggressive to set the voltage below the safe Vmin, and thus, to save
//! more power."
//!
//! An [`OnlinePredictor`] wraps a trained severity regression (counters +
//! candidate voltage → severity) and answers the governor's question: *how
//! low may the rail go for this workload under this severity budget?* A
//! budget of 0 is the conservative §4.4 "nothing abnormal" policy; budgets
//! up to 4 ("SDCs alone") suit the fault-tolerant application classes the
//! paper lists (approximate computing, video processing, jammer detectors).

use margins_predict::RecursiveFeatureElimination;
use margins_sim::volt::PMD_NOMINAL;
use margins_sim::Millivolts;

/// The conservative severity budget: no predicted abnormality (§4.4
/// "Nothing abnormal (severity=0)").
pub const BUDGET_CONSERVATIVE: f64 = 0.0;

/// The fault-tolerant-application budget (§4.4: "for such applications,
/// severity <= 4 can be used for improving energy efficiency").
pub const BUDGET_SDC_TOLERANT: f64 = 4.0;

/// A trained severity model driving online voltage decisions.
///
/// The model's feature layout must match `margins-core::dataset`'s severity
/// samples: the 101 PMU counters followed by the candidate voltage in mV.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlinePredictor {
    model: RecursiveFeatureElimination,
}

impl OnlinePredictor {
    /// Wraps a trained severity regression.
    #[must_use]
    pub fn new(model: RecursiveFeatureElimination) -> Self {
        OnlinePredictor { model }
    }

    /// Predicted severity of running a workload with nominal-conditions
    /// `counters` at `voltage`.
    #[must_use]
    fn predicted_severity(&self, counters: &[f64], voltage: Millivolts) -> f64 {
        let mut features = counters.to_vec();
        features.push(voltage.as_f64());
        self.model.predict(&features)
    }

    /// The lowest voltage on the 5 mV grid — scanning from nominal down to
    /// `floor` — such that the predicted severity stays within `budget` at
    /// that voltage *and every voltage above it* (the usable prefix).
    ///
    /// Returns `None` when even nominal is predicted over budget (the
    /// model distrusts this workload entirely; stay at nominal).
    #[must_use]
    pub fn safe_voltage(
        &self,
        counters: &[f64],
        budget: f64,
        floor: Millivolts,
    ) -> Option<Millivolts> {
        let mut best = None;
        let mut v = PMD_NOMINAL;
        loop {
            let severity = self.predicted_severity(counters, v);
            if severity > budget + 1e-9 {
                break;
            }
            best = Some(v);
            if v <= floor {
                break;
            }
            v = v.down_steps(1);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trains a model on synthetic samples with a known linear law:
    /// severity = 0.4·(onset − v) + 0.001·c0, clipped to the sampled band.
    fn trained() -> OnlinePredictor {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for c0 in [1000.0f64, 2000.0, 3000.0] {
            for vk in 0..30 {
                let v = 930.0 - f64::from(vk) * 5.0;
                let onset = 860.0 + c0 / 100.0; // workload-dependent onset
                let severity = (0.4 * (onset - v)).max(0.0);
                if severity > 0.0 {
                    x.push(vec![c0, 1.0, v]);
                    y.push(severity);
                }
            }
        }
        let model = RecursiveFeatureElimination::fit(&x, &y, 2, 1).expect("fits");
        OnlinePredictor::new(model)
    }

    #[test]
    fn severity_prediction_decreases_with_voltage() {
        let p = trained();
        let counters = [2000.0, 1.0];
        let high = p.predicted_severity(&counters, Millivolts::new(900));
        let low = p.predicted_severity(&counters, Millivolts::new(860));
        assert!(
            low > high,
            "severity must grow as voltage drops: {high} vs {low}"
        );
    }

    #[test]
    fn larger_budgets_allow_deeper_voltages() {
        let p = trained();
        let counters = [2000.0, 1.0];
        let floor = Millivolts::new(800);
        let conservative = p.safe_voltage(&counters, BUDGET_CONSERVATIVE, floor);
        let tolerant = p.safe_voltage(&counters, BUDGET_SDC_TOLERANT, floor);
        let (c, t) = (conservative.unwrap(), tolerant.unwrap());
        assert!(t <= c, "tolerant {t} must be at or below conservative {c}");
        assert!(t < c, "a 4-unit budget buys real depth here");
    }

    #[test]
    fn heavier_workloads_get_higher_safe_voltages() {
        let p = trained();
        let floor = Millivolts::new(800);
        let light = p
            .safe_voltage(&[1000.0, 1.0], BUDGET_CONSERVATIVE, floor)
            .unwrap();
        let heavy = p
            .safe_voltage(&[3000.0, 1.0], BUDGET_CONSERVATIVE, floor)
            .unwrap();
        assert!(heavy > light, "heavy {heavy} vs light {light}");
    }

    #[test]
    fn safe_voltage_respects_the_floor_and_grid() {
        let p = trained();
        let floor = Millivolts::new(900);
        let v = p
            .safe_voltage(&[1000.0, 1.0], BUDGET_SDC_TOLERANT, floor)
            .unwrap();
        assert!(v >= floor);
        assert_eq!(v.get() % margins_sim::volt::VOLTAGE_STEP_MV, 0);
        assert!(v <= PMD_NOMINAL);
    }
}
