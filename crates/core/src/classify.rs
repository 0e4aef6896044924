//! The parsing phase: raw run records → Table 3 effect sets.
//!
//! The physical framework parses serial/EDAC/process logs; here the raw
//! material is the simulator's [`RunRecord`], and — exactly like the paper —
//! SDC detection is an *output comparison* against a golden digest captured
//! at nominal conditions, not an oracle of the fault injector.

use crate::effect::{Effect, EffectSet};
use margins_sim::{CoreId, CounterFile, Millivolts};
use margins_sim::{Megahertz, OutputDigest, RunOutcome, RunRecord};

/// One fully classified characterization run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifiedRun {
    /// Benchmark name.
    pub program: String,
    /// Input dataset label.
    pub dataset: String,
    /// Core the benchmark was pinned to.
    pub core: CoreId,
    /// PMD-rail voltage of the run.
    pub pmd_mv: Millivolts,
    /// PCP/SoC-rail voltage of the run.
    pub soc_mv: Millivolts,
    /// PMD clock of the target core.
    pub freq: Megahertz,
    /// Iteration index within the campaign (0-based).
    pub iteration: u32,
    /// The Table 3 effects observed.
    pub effects: EffectSet,
    /// Corrected-error reports during the run.
    pub corrected_errors: usize,
    /// Uncorrected-error reports during the run.
    pub uncorrected_errors: usize,
    /// Modelled runtime, seconds.
    pub runtime_s: f64,
    /// Modelled energy, joules.
    pub energy_j: f64,
    /// Performance counters, retained only when the campaign asked for them.
    pub counters: Option<CounterFile>,
}

impl ClassifiedRun {
    /// The voltage of the rail a campaign swept (the step key of the
    /// regions analysis).
    #[must_use]
    pub fn swept_mv(&self, rail: crate::config::SweptRail) -> Millivolts {
        match rail {
            crate::config::SweptRail::Pmd => self.pmd_mv,
            crate::config::SweptRail::PcpSoc => self.soc_mv,
        }
    }
}

/// Classifies a raw run record against the golden digest.
///
/// * system crash → SC (the watchdog timeout / unresponsive board),
/// * application crash → AC (non-zero exit),
/// * EDAC corrected reports → CE, uncorrected → UE,
/// * completed with digest ≠ golden → SDC.
///
/// Multiple effects are all recorded (§3.4.1). When `golden` is `None`
/// (no reference output available) SDC detection is skipped.
#[must_use]
pub fn classify(record: &RunRecord, golden: Option<OutputDigest>) -> EffectSet {
    let mut effects = EffectSet::new();
    match record.outcome {
        RunOutcome::SystemCrashed => effects.insert(Effect::Sc),
        RunOutcome::AppCrashed => effects.insert(Effect::Ac),
        RunOutcome::Completed => {
            if let Some(golden) = golden {
                if record.digest != golden {
                    effects.insert(Effect::Sdc);
                }
            }
        }
    }
    if record.corrected_errors > 0 {
        effects.insert(Effect::Ce);
    }
    if record.uncorrected_errors > 0 {
        effects.insert(Effect::Ue);
    }
    effects
}

/// Builds the classified run from the raw record (the parsing-phase row).
#[must_use]
pub fn classify_run(
    record: &RunRecord,
    golden: Option<OutputDigest>,
    iteration: u32,
    keep_counters: bool,
) -> ClassifiedRun {
    ClassifiedRun {
        program: record.program.clone(),
        dataset: record.dataset.clone(),
        core: record.core,
        pmd_mv: record.pmd_mv,
        soc_mv: record.soc_mv,
        freq: record.freq,
        iteration,
        effects: classify(record, golden),
        corrected_errors: record.corrected_errors,
        uncorrected_errors: record.uncorrected_errors,
        runtime_s: record.runtime_s,
        energy_j: record.energy_j,
        counters: if keep_counters {
            Some(record.counters.clone())
        } else {
            None
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(outcome: RunOutcome, digest_seed: u64, ce: usize, ue: usize) -> RunRecord {
        let mut digest = OutputDigest::new();
        digest.absorb_u64(digest_seed);
        RunRecord {
            program: "demo".into(),
            dataset: "ref".into(),
            core: CoreId::new(0),
            pmd_mv: Millivolts::new(900),
            soc_mv: Millivolts::new(950),
            freq: Megahertz::new(2400),
            outcome,
            digest,
            corrected_errors: ce,
            uncorrected_errors: ue,
            timing_faults: 0,
            fault_samples: 0,
            silent_corruptions: 0,
            counters: CounterFile::new(),
            cycles: 1000,
            instructions: 900,
            runtime_s: 1e-3,
            energy_j: 1e-2,
            stress_mass: 5.0,
            fault_free: None,
        }
    }

    fn golden() -> OutputDigest {
        let mut d = OutputDigest::new();
        d.absorb_u64(1);
        d
    }

    #[test]
    fn clean_completed_run_is_normal() {
        let r = record(RunOutcome::Completed, 1, 0, 0);
        assert!(classify(&r, Some(golden())).is_normal());
    }

    #[test]
    fn digest_mismatch_is_sdc() {
        let r = record(RunOutcome::Completed, 2, 0, 0);
        let e = classify(&r, Some(golden()));
        assert!(e.contains(Effect::Sdc));
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn sdc_detection_requires_a_golden() {
        let r = record(RunOutcome::Completed, 2, 0, 0);
        assert!(classify(&r, None).is_normal());
    }

    #[test]
    fn crashes_map_to_ac_and_sc() {
        let r = record(RunOutcome::AppCrashed, 1, 0, 0);
        assert!(classify(&r, Some(golden())).contains(Effect::Ac));
        let r = record(RunOutcome::SystemCrashed, 1, 0, 0);
        assert!(classify(&r, Some(golden())).is_system_crash());
    }

    #[test]
    fn edac_reports_map_to_ce_ue_and_coexist_with_sdc() {
        // §3.4.1's example: a run can manifest both SDC and CE.
        let r = record(RunOutcome::Completed, 2, 3, 1);
        let e = classify(&r, Some(golden()));
        assert!(e.contains(Effect::Sdc));
        assert!(e.contains(Effect::Ce));
        assert!(e.contains(Effect::Ue));
        assert_eq!(e.to_string(), "SDC+CE+UE");
    }

    #[test]
    fn crashed_runs_do_not_check_output() {
        // A crashed run's digest is garbage; it must not add SDC.
        let r = record(RunOutcome::AppCrashed, 2, 0, 0);
        let e = classify(&r, Some(golden()));
        assert!(!e.contains(Effect::Sdc));
    }

    #[test]
    fn classify_run_carries_context() {
        let r = record(RunOutcome::Completed, 1, 1, 0);
        let c = classify_run(&r, Some(golden()), 7, false);
        assert_eq!(c.iteration, 7);
        assert_eq!(c.pmd_mv, Millivolts::new(900));
        assert_eq!(c.corrected_errors, 1);
        assert!(c.counters.is_none());
        let c = classify_run(&r, Some(golden()), 7, true);
        assert!(c.counters.is_some());
    }
}
