//! The severity function of §3.4.1 — the paper's second contribution.
//!
//! ```text
//! S_v = W_SDC·SDC/N + W_CE·CE/N + W_UE·UE/N + W_AC·AC/N + W_SC·SC/N
//! ```
//!
//! where each effect parameter counts *the runs (out of N at voltage v) in
//! which the effect appeared* — not how many individual errors each run
//! produced — and the weights translate behaviours into numbers (Table 4:
//! SC=16, AC=8, SDC=4, UE=2, CE=1, NO=0).

use crate::effect::{Effect, EffectSet};
use std::fmt;

/// A severity value (weighted abnormal-run density at one voltage step).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Severity(f64);

impl Severity {
    /// Zero severity: nothing abnormal (the safe region).
    pub(crate) const ZERO: Severity = Severity(0.0);

    /// Wraps a raw severity value.
    ///
    /// # Panics
    ///
    /// Panics on NaN (severity is always a finite weighted average).
    #[must_use]
    fn new(value: f64) -> Self {
        assert!(!value.is_nan(), "severity cannot be NaN");
        Severity(value)
    }

    /// The raw value.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// The mitigation guidance of §4.4 for this severity level, given the
    /// effect mix observed/predicted at the same voltage.
    #[must_use]
    pub fn mitigation(self, observed: EffectSet) -> Mitigation {
        if self.0 <= f64::EPSILON {
            Mitigation::NothingAbnormal
        } else if observed.contains(Effect::Sc) || observed.contains(Effect::Ac) || self.0 >= 8.0 {
            Mitigation::Unusable
        } else if observed.contains(Effect::Sdc) {
            Mitigation::RequiresRecovery
        } else {
            Mitigation::EccProxy
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}", self.0)
    }
}

/// The §4.4 voltage-range classification by first-observed effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mitigation {
    /// severity = 0: "no mitigation action is required"; minimal savings.
    NothingAbnormal,
    /// Corrected errors only (the Itanium-style behaviour of [9, 10]): ECC
    /// serves as a proxy; "significant energy savings … without any
    /// mitigation other than the ECC correction".
    EccProxy,
    /// SDCs (alone or with CE/UE): needs checkpointing/re-execution, or is
    /// acceptable only for fault-tolerant applications (severity ≤ 4).
    RequiresRecovery,
    /// AC/SC territory (severity 8–19): "well beyond the limits of cores
    /// operation"; unusable without hardware redesign.
    Unusable,
}

impl fmt::Display for Mitigation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Mitigation::NothingAbnormal => "nothing abnormal; no mitigation required",
            Mitigation::EccProxy => "corrected errors only; ECC serves as proxy",
            Mitigation::RequiresRecovery => "SDCs present; checkpoint/re-execution required",
            Mitigation::Unusable => "crashes present; range unusable",
        };
        f.write_str(s)
    }
}

/// The severity weights (Table 4). Different weights "can be also used
/// according to the importance of each observed abnormal behavior in a
/// particular system study".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeverityWeights {
    /// Weight of a run manifesting a silent data corruption.
    pub sdc: f64,
    /// Weight of a run manifesting corrected errors.
    pub ce: f64,
    /// Weight of a run manifesting uncorrected errors.
    pub ue: f64,
    /// Weight of a run manifesting an application crash.
    pub ac: f64,
    /// Weight of a run manifesting a system crash.
    pub sc: f64,
}

impl SeverityWeights {
    /// The Table 4 weights used throughout the paper's experiments.
    #[must_use]
    pub fn paper() -> Self {
        SeverityWeights {
            sc: 16.0,
            ac: 8.0,
            sdc: 4.0,
            ue: 2.0,
            ce: 1.0,
        }
    }

    /// The weight assigned to one effect (NO weighs 0).
    #[must_use]
    fn weight(&self, effect: Effect) -> f64 {
        match effect {
            Effect::No => 0.0,
            Effect::Sdc => self.sdc,
            Effect::Ce => self.ce,
            Effect::Ue => self.ue,
            Effect::Ac => self.ac,
            Effect::Sc => self.sc,
        }
    }

    /// The severity of a *single* run's effect set: Σ weights of the
    /// effects it manifested.
    #[must_use]
    pub(crate) fn run_severity(&self, effects: EffectSet) -> f64 {
        effects.iter().map(|e| self.weight(e)).sum()
    }

    /// The severity function S_v over the N runs executed at one voltage
    /// step: each effect contributes `W_e · (runs manifesting e) / N`.
    ///
    /// Returns a zero severity for an empty slice.
    #[must_use]
    pub fn severity<'a, I>(&self, runs: I) -> Severity
    where
        I: IntoIterator<Item = &'a EffectSet>,
    {
        let mut n = 0usize;
        let mut total = 0.0;
        for set in runs {
            n += 1;
            total += self.run_severity(*set);
        }
        if n == 0 {
            Severity::ZERO
        } else {
            Severity::new(total / n as f64)
        }
    }

    /// The maximum severity expressible with these weights (every run
    /// manifesting every abnormal effect). With the paper's weights: 31;
    /// in practice §4.4 treats 16–19 as the crash ceiling since SC runs
    /// rarely also log SDC output mismatches.
    #[must_use]
    pub fn max_severity(&self) -> f64 {
        self.sdc + self.ce + self.ue + self.ac + self.sc
    }
}

impl Default for SeverityWeights {
    fn default() -> Self {
        SeverityWeights::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(effects: &[Effect]) -> EffectSet {
        effects.iter().copied().collect()
    }

    #[test]
    fn paper_weights_match_table4() {
        let w = SeverityWeights::paper();
        assert_eq!(w.weight(Effect::Sc), 16.0);
        assert_eq!(w.weight(Effect::Ac), 8.0);
        assert_eq!(w.weight(Effect::Sdc), 4.0);
        assert_eq!(w.weight(Effect::Ue), 2.0);
        assert_eq!(w.weight(Effect::Ce), 1.0);
        assert_eq!(w.weight(Effect::No), 0.0);
    }

    #[test]
    fn all_normal_runs_have_zero_severity() {
        let w = SeverityWeights::paper();
        let runs = vec![EffectSet::new(); 10];
        assert_eq!(w.severity(&runs), Severity::ZERO);
    }

    #[test]
    fn all_sc_runs_reach_16() {
        let w = SeverityWeights::paper();
        let runs = vec![set(&[Effect::Sc]); 10];
        assert_eq!(w.severity(&runs).value(), 16.0);
    }

    #[test]
    fn fig5_style_fractional_values() {
        // 10 runs: 2/3 of them SDC-only would be 2.7 in Figure 5's
        // 1-decimal rendering. Here: 7 SDC of 10 → 2.8.
        let w = SeverityWeights::paper();
        let mut runs = vec![set(&[Effect::Sdc]); 7];
        runs.extend(vec![EffectSet::new(); 3]);
        let s = w.severity(&runs);
        assert!((s.value() - 2.8).abs() < 1e-12);
    }

    #[test]
    fn multi_effect_runs_accumulate_weights() {
        // A run with SDC+CE counts 4+1 = 5 (the §4.4 "severity=5-7" band).
        let w = SeverityWeights::paper();
        let runs = vec![set(&[Effect::Sdc, Effect::Ce]); 10];
        assert_eq!(w.severity(&runs).value(), 5.0);
    }

    #[test]
    fn empty_input_is_zero() {
        let w = SeverityWeights::paper();
        let runs: Vec<EffectSet> = vec![];
        assert_eq!(w.severity(&runs), Severity::ZERO);
    }

    #[test]
    fn mitigation_bands_follow_section_4_4() {
        assert_eq!(
            Severity::ZERO.mitigation(EffectSet::new()),
            Mitigation::NothingAbnormal
        );
        assert_eq!(
            Severity::new(1.0).mitigation(set(&[Effect::Ce])),
            Mitigation::EccProxy
        );
        assert_eq!(
            Severity::new(4.0).mitigation(set(&[Effect::Sdc])),
            Mitigation::RequiresRecovery
        );
        assert_eq!(
            Severity::new(5.0).mitigation(set(&[Effect::Sdc, Effect::Ce])),
            Mitigation::RequiresRecovery
        );
        assert_eq!(
            Severity::new(16.0).mitigation(set(&[Effect::Sc])),
            Mitigation::Unusable
        );
        assert_eq!(
            Severity::new(9.0).mitigation(set(&[Effect::Ac, Effect::Ue])),
            Mitigation::Unusable
        );
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_severity_rejected() {
        let _ = Severity::new(f64::NAN);
    }

    #[test]
    fn max_severity_with_paper_weights() {
        assert_eq!(SeverityWeights::paper().max_severity(), 31.0);
    }
}
