//! The predictor-guided undervolting governor (§5).
//!
//! "According to the worst-case behavior of the core-benchmark pair, the
//! predictor can decide what is the safe voltage for all the cores, which
//! is practically the maximum among them."
//!
//! The governor consumes a [`VminTable`] (measured or predicted), applies a
//! configurable guardband, and picks the best point of the Figure 9
//! staircase subject to the operator's performance budget.

use crate::schedule::Assignment;
use crate::tradeoff::{pareto_curve, TradeoffPoint};
use crate::vmin::VminTable;
use margins_sim::topology::NUM_PMDS;
use margins_sim::{Megahertz, Millivolts};

/// Governor policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Policy {
    /// Extra 5 mV steps added above every safe Vmin (a software guardband
    /// against dynamic conditions the table did not see).
    pub guardband_steps: u32,
    /// Maximum acceptable multiprogram performance loss (0.0 = none,
    /// 0.25 = the paper's 38.8%-savings point, 0.5 = the 1.2 GHz floor).
    pub max_performance_loss: f64,
}

impl Default for Policy {
    fn default() -> Self {
        Policy {
            guardband_steps: 0,
            max_performance_loss: 0.0,
        }
    }
}

/// What the governor decided for the current schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct GovernorDecision {
    /// The shared-rail voltage to program.
    pub voltage: Millivolts,
    /// Per-PMD frequencies to program.
    pub freqs: [Megahertz; NUM_PMDS],
    /// Expected power relative to nominal.
    pub relative_power: f64,
    /// Expected throughput relative to all-full-speed.
    pub relative_performance: f64,
    /// Expected energy savings.
    pub energy_savings: f64,
}

impl From<&TradeoffPoint> for GovernorDecision {
    fn from(p: &TradeoffPoint) -> Self {
        GovernorDecision {
            voltage: p.voltage,
            freqs: p.freqs,
            relative_power: p.relative_power,
            relative_performance: p.relative_performance,
            energy_savings: p.energy_savings,
        }
    }
}

/// The governor.
#[derive(Debug, Clone, PartialEq)]
pub struct Governor {
    table: VminTable,
    policy: Policy,
}

impl Governor {
    /// Creates a governor over a safe-voltage table.
    #[must_use]
    pub fn new(table: VminTable, policy: Policy) -> Self {
        Governor { table, policy }
    }

    /// Chooses the deepest staircase point whose performance stays within
    /// budget, with the guardband applied to the voltage. Returns `None`
    /// when the table lacks an entry for some assignment — the safe
    /// fallback is nominal operation.
    #[must_use]
    pub fn decide(&self, assignments: &[Assignment]) -> Option<GovernorDecision> {
        let curve = pareto_curve(assignments, &self.table)?;
        let min_perf = 1.0 - self.policy.max_performance_loss;
        let chosen = curve
            .iter()
            .filter(|p| p.relative_performance + 1e-12 >= min_perf)
            .max_by(|a, b| a.energy_savings.total_cmp(&b.energy_savings))?;
        let mut decision = GovernorDecision::from(chosen);
        let guarded = decision.voltage.up_steps(self.policy.guardband_steps);
        let guarded = guarded.min(margins_sim::volt::PMD_NOMINAL);
        // Rescale power by V² for the guardband, preserving the staircase's
        // loaded-PMD normalization (idle PMDs are excluded there).
        decision.relative_power *= guarded.ratio_to(decision.voltage).powi(2);
        decision.voltage = guarded;
        decision.energy_savings = crate::model::energy_savings(decision.relative_power);
        Some(decision)
    }

    /// Like [`Governor::decide`], but records any decision made into
    /// `buffer` as a [`TraceEvent::VoltageDecision`] — the governor's
    /// contribution to a campaign telemetry stream.
    ///
    /// [`TraceEvent::VoltageDecision`]: margins_trace::TraceEvent::VoltageDecision
    pub fn decide_observed(
        &self,
        assignments: &[Assignment],
        buffer: &margins_trace::EventBuffer,
    ) -> Option<GovernorDecision> {
        let decision = self.decide(assignments)?;
        buffer.record(margins_trace::TraceEvent::VoltageDecision {
            voltage_mv: decision.voltage.get(),
            guardband_steps: self.policy.guardband_steps,
            relative_power: decision.relative_power,
            relative_performance: decision.relative_performance,
            energy_savings: decision.energy_savings,
        });
        Some(decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use margins_sim::CoreId;

    fn table() -> (Vec<Assignment>, VminTable) {
        let mut t = VminTable::new();
        let data = [
            (0u8, "leslie3d", 915u32),
            (2, "cactusADM", 900),
            (4, "dealII", 870),
            (6, "namd", 885),
        ];
        let mut a = Vec::new();
        for (core, wl, v) in data {
            t.insert(CoreId::new(core), wl, Millivolts::new(v));
            a.push(Assignment {
                core: CoreId::new(core),
                workload: wl.to_owned(),
            });
        }
        (a, t)
    }

    #[test]
    fn zero_loss_budget_picks_the_binding_vmin() {
        let (a, t) = table();
        let g = Governor::new(t, Policy::default());
        let d = g.decide(&a).unwrap();
        assert_eq!(d.voltage, Millivolts::new(915));
        assert_eq!(d.relative_performance, 1.0);
        assert!(
            (d.energy_savings - 0.128).abs() < 0.001,
            "{}",
            d.energy_savings
        );
    }

    #[test]
    fn quarter_loss_budget_drops_two_pmds() {
        let (a, t) = table();
        let g = Governor::new(
            t,
            Policy {
                guardband_steps: 0,
                max_performance_loss: 0.25,
            },
        );
        let d = g.decide(&a).unwrap();
        assert!((d.relative_performance - 0.75).abs() < 1e-12);
        assert_eq!(d.voltage, Millivolts::new(885));
        assert!(
            (d.energy_savings - 0.388).abs() < 0.002,
            "{}",
            d.energy_savings
        );
    }

    #[test]
    fn half_loss_budget_reaches_the_divided_floor() {
        let (a, t) = table();
        let g = Governor::new(
            t,
            Policy {
                guardband_steps: 0,
                max_performance_loss: 0.5,
            },
        );
        let d = g.decide(&a).unwrap();
        assert_eq!(d.voltage, crate::tradeoff::DIVIDED_SAFE);
        assert!(
            (d.energy_savings - 0.699).abs() < 0.002,
            "{}",
            d.energy_savings
        );
    }

    #[test]
    fn guardband_raises_the_voltage() {
        let (a, t) = table();
        let g = Governor::new(
            t,
            Policy {
                guardband_steps: 2,
                max_performance_loss: 0.0,
            },
        );
        let d = g.decide(&a).unwrap();
        assert_eq!(d.voltage, Millivolts::new(925));
        assert!(d.energy_savings < 0.128);
    }

    #[test]
    fn observed_decision_matches_decide_and_reports_one_event() {
        use margins_trace::{EventBuffer, TraceEvent};
        let (a, t) = table();
        let g = Governor::new(
            t,
            Policy {
                guardband_steps: 1,
                max_performance_loss: 0.25,
            },
        );
        let plain = g.decide(&a).unwrap();
        let buffer = EventBuffer::new();
        let observed = g.decide_observed(&a, &buffer).unwrap();
        assert_eq!(plain, observed);
        let events = buffer.drain();
        assert_eq!(events.len(), 1);
        match &events[0] {
            TraceEvent::VoltageDecision {
                voltage_mv,
                guardband_steps,
                energy_savings,
                ..
            } => {
                assert_eq!(*voltage_mv, plain.voltage.get());
                assert_eq!(*guardband_steps, 1);
                assert!((energy_savings - plain.energy_savings).abs() < 1e-12);
            }
            other => panic!("unexpected event {}", other.name()),
        }
    }

    #[test]
    fn missing_workload_falls_back_to_none() {
        let (mut a, t) = table();
        a.push(Assignment {
            core: CoreId::new(1),
            workload: "ghost".into(),
        });
        assert!(Governor::new(t, Policy::default()).decide(&a).is_none());
    }
}
