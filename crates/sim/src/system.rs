//! The whole micro-server: chip + supplies + clocks + thermal + error
//! reporting, with run execution, a heartbeat, and power/reset control.
//!
//! This is the boundary the characterization framework drives: it sets
//! voltages and frequencies through the SLIMpro ([`crate::mgmt`]), executes
//! benchmark runs, reads the outcome and the EDAC log, and — when the
//! machine hangs — power-cycles it through the watchdog lines, exactly the
//! loop of Figure 2 in the paper.

use crate::cache::CacheHierarchy;
use crate::corner::{ChipSpec, VariationMap};
use crate::counters::{CounterFile, PmuEvent};
use crate::edac::{EdacKind, EdacLog};
use crate::freq::{Megahertz, TimingRegime, MAX_FREQ};
use crate::machine::{FaultFree, Machine, MachineParams, MachineReport, MachineStatus};
use crate::power::{EnergyMeter, OperatingPoint, PowerModel};
use crate::program::{OutputDigest, Program};
use crate::thermal::ThermalModel;
use crate::topology::{CoreId, PmdId, NUM_PMDS};
use crate::volt::{Millivolts, SupplyState};
use margins_trace::{EventBuffer, TraceEvent};
use std::fmt;
use std::sync::Arc;

/// Static configuration of the simulated board. Every board powers on
/// with its fan controller regulating to the §3.1 setpoint of 43 °C; the
/// PMpro can move the setpoint until the next reinitialization.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SystemConfig {
    /// §6 hardware enhancements of this chip revision (stock by default).
    pub enhancements: crate::enhance::Enhancements,
}

/// Outcome of a single benchmark run, before output comparison.
///
/// Note that SDC detection is *not* the system's job: like the physical
/// framework, the caller compares [`RunRecord::digest`] against a golden
/// nominal-conditions digest (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RunOutcome {
    /// The process exited normally (output may still mismatch → SDC).
    Completed,
    /// The process died abnormally (AC).
    AppCrashed,
    /// The machine hung; the watchdog must power-cycle it (SC).
    SystemCrashed,
}

impl fmt::Display for RunOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RunOutcome::Completed => "completed",
            RunOutcome::AppCrashed => "application crash",
            RunOutcome::SystemCrashed => "system crash",
        };
        f.write_str(s)
    }
}

/// Everything observable about one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Benchmark name.
    pub program: String,
    /// Input dataset label.
    pub dataset: String,
    /// Core the benchmark ran on.
    pub core: CoreId,
    /// PMD-rail voltage during the run.
    pub pmd_mv: Millivolts,
    /// PCP/SoC-rail voltage during the run.
    pub soc_mv: Millivolts,
    /// Frequency of the core's PMD.
    pub freq: Megahertz,
    /// Completion status.
    pub outcome: RunOutcome,
    /// Output digest (meaningful only for [`RunOutcome::Completed`]).
    pub digest: OutputDigest,
    /// Corrected errors reported during the run: EDAC array corrections
    /// plus (on §6b-enhanced chips) detected-and-retried datapath faults.
    pub corrected_errors: usize,
    /// Uncorrected errors reported by EDAC during the run.
    pub uncorrected_errors: usize,
    /// Timing faults injected (omniscient-simulator diagnostic).
    pub timing_faults: u32,
    /// Poisson accounting events the fault model drew — the fault path's
    /// unit of work for profiling.
    pub fault_samples: u64,
    /// Silent value corruptions applied (omniscient diagnostic).
    pub silent_corruptions: u32,
    /// PMU counters of the run.
    pub counters: CounterFile,
    /// Modelled cycles.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Modelled wall-clock runtime, seconds.
    pub runtime_s: f64,
    /// Energy drawn by the chip over the run, joules.
    pub energy_j: f64,
    /// The run's total timing stress mass (diagnostic).
    pub stress_mass: f64,
    /// Present when the run fired and observed no fault of any kind: what
    /// [`System::replay`] needs to stand this run in for another one.
    pub fault_free: Option<FaultFree>,
}

/// Error returned when driving a hung system without power-cycling it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnresponsiveError;

impl fmt::Display for UnresponsiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("system is unresponsive; power-cycle it first")
    }
}

impl std::error::Error for UnresponsiveError {}

/// The simulated micro-server.
pub struct System {
    pub(crate) spec: ChipSpec,
    pub(crate) variation: VariationMap,
    pub(crate) supplies: SupplyState,
    pub(crate) pmd_freq: [Megahertz; NUM_PMDS],
    pub(crate) caches: CacheHierarchy,
    pub(crate) edac: EdacLog,
    pub(crate) thermal: ThermalModel,
    pub(crate) power: PowerModel,
    pub(crate) energy: EnergyMeter,
    pub(crate) responsive: bool,
    pub(crate) boot_count: u32,
    pub(crate) config: SystemConfig,
    pub(crate) observer: Option<Arc<EventBuffer>>,
}

impl System {
    /// Powers up a board built around the chip described by `spec`.
    #[must_use]
    pub fn new(spec: ChipSpec, config: SystemConfig) -> Self {
        // The volatile fields are placeholders: `reinitialize` below is the
        // one definition of the power-on state.
        let mut sys = System {
            spec,
            variation: spec.variation(),
            supplies: SupplyState::nominal(),
            pmd_freq: [MAX_FREQ; NUM_PMDS],
            caches: CacheHierarchy::with_protection(spec, config.enhancements.extended_ecc),
            edac: EdacLog::new(),
            thermal: ThermalModel::default(),
            power: PowerModel::new(spec.corner()),
            energy: EnergyMeter::new(),
            responsive: false,
            boot_count: 0,
            config,
            observer: None,
        };
        sys.reinitialize();
        sys
    }

    /// Returns the board to the power-on state [`System::new`] leaves it
    /// in, as if it had just been built from the same spec and config:
    /// nominal supplies, every PMD at full clock, empty caches and EDAC
    /// log, the thermal model and energy meter restarted, and one boot.
    ///
    /// Unlike [`System::power_cycle`], nothing volatile survives: thermal
    /// history, the energy meter, a PMpro setpoint change and the boot
    /// count are all undone. What depends only on the spec is kept: the
    /// variation map, the power model, the cache arrays' storage and any
    /// weak-cell maps they have drawn. An attached event buffer stays
    /// attached, and nothing is recorded into it.
    pub fn reinitialize(&mut self) {
        self.supplies = SupplyState::nominal();
        self.pmd_freq = [MAX_FREQ; NUM_PMDS];
        self.caches.reset();
        self.edac = EdacLog::new();
        self.thermal = ThermalModel::default();
        self.energy = EnergyMeter::new();
        self.responsive = true;
        self.boot_count = 1;
    }

    /// Current supply state.
    #[must_use]
    pub fn supplies(&self) -> SupplyState {
        self.supplies
    }

    /// Current frequency of a PMD.
    #[must_use]
    pub fn pmd_frequency(&self, pmd: PmdId) -> Megahertz {
        self.pmd_freq[pmd.index()]
    }

    /// The heartbeat the external watchdog monitors (§2.2: the Raspberry Pi
    /// detects an unresponsive board over serial).
    #[must_use]
    pub fn is_responsive(&self) -> bool {
        self.responsive
    }

    /// Number of boots since construction (diagnostics).
    #[must_use]
    pub fn boot_count(&self) -> u32 {
        self.boot_count
    }

    /// Cumulative energy meter.
    #[must_use]
    pub fn energy_meter(&self) -> EnergyMeter {
        self.energy
    }

    /// Attaches a telemetry buffer: subsequent rail programming and EDAC
    /// drains record [`TraceEvent`]s into it. The simulator never emits
    /// when no buffer is attached, and tracing has no effect on simulation
    /// results either way.
    pub fn set_observer(&mut self, observer: Arc<EventBuffer>) {
        self.observer = Some(observer);
    }

    /// Records one event into the attached buffer, constructing it only
    /// when a buffer is attached — instrumented callers (the
    /// characterization framework) pay nothing when tracing is off.
    pub fn observe(&self, build: impl FnOnce() -> TraceEvent) {
        if let Some(obs) = &self.observer {
            obs.record(build());
        }
    }

    /// The SLIMpro management-processor interface (voltage/frequency
    /// regulation, sensor reads, error-report mailbox — §2.1).
    pub fn slimpro_mut(&mut self) -> crate::mgmt::SlimPro<'_> {
        crate::mgmt::SlimPro::new(self)
    }

    /// The PMpro power-management-processor interface (§2.1).
    pub fn pmpro_mut(&mut self) -> crate::mgmt::PmPro<'_> {
        crate::mgmt::PmPro::new(self)
    }

    /// Hard power cycle via the external power lines: everything volatile
    /// resets, supplies return to nominal, the machine becomes responsive.
    ///
    /// This is what the watchdog does after detecting a system crash
    /// ("recognizes when the system is unresponsive and restores it
    /// automatically", §2.2).
    pub fn power_cycle(&mut self) {
        self.supplies = SupplyState::nominal();
        self.pmd_freq = [MAX_FREQ; NUM_PMDS];
        self.caches.reset();
        self.edac = EdacLog::new();
        self.responsive = true;
        self.boot_count += 1;
    }

    /// Executes `program` on `core` under the current V/F state.
    ///
    /// `seed` individualizes the run (campaign iteration); the same
    /// (system state, program, core, seed) replays identically.
    ///
    /// # Errors
    ///
    /// Returns [`UnresponsiveError`] if the machine is hung; the caller
    /// (the watchdog) must power-cycle first.
    pub fn run(
        &mut self,
        program: &dyn Program,
        core: CoreId,
        seed: u64,
    ) -> Result<RunRecord, UnresponsiveError> {
        if !self.responsive {
            return Err(UnresponsiveError);
        }
        let regime = self.pmd_freq[core.pmd().index()].timing_regime();
        let params = MachineParams {
            core,
            pmd_mv: self.supplies.pmd().as_f64(),
            soc_mv: self.supplies.soc().as_f64(),
            regime,
            vcrit_mv: self.variation.vcrit_mv(core, regime),
            thermal_shift_mv: self.thermal.vcrit_shift_mv(),
            seed,
            enhancements: self.config.enhancements,
        };
        let mut machine = Machine::new(params, &mut self.caches, &mut self.edac);
        machine.boot();
        let digest = if machine.status() == MachineStatus::Healthy {
            program.run(&mut machine)
        } else {
            OutputDigest::new()
        };
        let report = machine.finalize();
        Ok(self.complete_run(program.name(), program.dataset(), core, digest, report))
    }

    /// Answers a run of `record`'s program on `core` with `seed` without
    /// executing it, when the board's current supplies, clocks, thermal
    /// state and `seed` provably fire no fault in it. `record` must be a
    /// fault-free run that started from the cache contents this run would
    /// start from; the result then equals what [`System::run`] would
    /// return, field for field, and the board's energy meter and thermal
    /// state advance as that run would advance them.
    ///
    /// `record` may come from any core of any chip with this board's
    /// enhancements. Each cache level has one geometry on every core and
    /// every chip, so a run on another core after the same runs since
    /// power-on started from the same contents in its own arrays; the
    /// chip's supplies, critical voltages, thermal state and weak cells
    /// only feed the checks below, which read this board's.
    ///
    /// Returns `None`, changing nothing, when the board is hung, `record`
    /// carries no [`FaultFree`] summary, the core's clock is divided, any
    /// array the run touches (the core's L1D and L2 at the PMD rail, the
    /// L3 at the SoC rail) has a weak cell that fails at its supply, or
    /// either fault sampler could fire.
    ///
    /// A replay does not advance the cache contents: a board that replayed
    /// must be reinitialized (or power-cycled) before it executes again,
    /// or that run starts from other contents than it would have.
    pub fn replay(&mut self, record: &RunRecord, core: CoreId, seed: u64) -> Option<RunRecord> {
        if !self.responsive {
            return None;
        }
        let supplies = (self.supplies.pmd(), self.supplies.soc());
        let summary = self.certify(record, core, seed, supplies, &self.thermal)?;
        let report = MachineReport {
            status: MachineStatus::Healthy,
            counters: record.counters.clone(),
            cycles: record.cycles,
            instructions: record.instructions,
            timing_faults: 0,
            fault_samples: record.fault_samples,
            silent_corruptions: 0,
            detected_faults: 0,
            stress_mass: record.stress_mass,
            mean_activity: summary.mean_activity,
            fault_free: Some(summary),
        };
        Some(self.complete_run(
            &record.program,
            &record.dataset,
            core,
            record.digest,
            report,
        ))
    }

    /// Whether [`System::replay`] would answer every `(record, seed)` of
    /// `runs`, in order, on `core` with the PMD rail at `pmd` and the SoC
    /// rail at `soc`; as there, the records may come from any core of any
    /// chip with this board's enhancements. Changes nothing on the board:
    /// each run's thermal shift depends on the energy of the runs before
    /// it, so a clone of the thermal model is stepped through the same
    /// power function the replays would step.
    #[must_use]
    pub fn replays_cleanly(
        &self,
        runs: &[(&RunRecord, u64)],
        core: CoreId,
        pmd: Millivolts,
        soc: Millivolts,
    ) -> bool {
        let mut thermal = self.thermal.clone();
        self.responsive
            && runs.iter().all(|&(record, seed)| {
                let Some(summary) = self.certify(record, core, seed, (pmd, soc), &thermal) else {
                    return false;
                };
                let (runtime_s, watts) = self.run_power(
                    core,
                    (pmd, soc),
                    &thermal,
                    record.cycles,
                    summary.mean_activity,
                    &record.counters,
                );
                thermal.step(watts, runtime_s.min(1.0));
                true
            })
    }

    /// The check behind [`System::replay`], at supplies `(pmd, soc)` and
    /// the thermal shift of `thermal`: `record`'s summary when it holds.
    fn certify(
        &self,
        record: &RunRecord,
        core: CoreId,
        seed: u64,
        (pmd, soc): (Millivolts, Millivolts),
        thermal: &ThermalModel,
    ) -> Option<FaultFree> {
        let summary = record.fault_free?;
        let regime = self.pmd_freq[core.pmd().index()].timing_regime();
        let certified = regime == TimingRegime::FullSpeed
            && self.caches.l1d(core).holds_at(pmd.as_f64())
            && self.caches.l2(core).holds_at(pmd.as_f64())
            && self.caches.l3().holds_at(soc.as_f64())
            && summary.fires_no_fault(
                self.variation.vcrit_mv(core, regime),
                pmd.as_f64(),
                soc.as_f64(),
                thermal.vcrit_shift_mv(),
                seed,
            );
        certified.then_some(summary)
    }

    /// Modelled runtime (s) and chip power (W) of a run of `cycles` cycles
    /// on `core` at supplies `(pmd, soc)`, from `thermal`'s die
    /// temperature, under the board's current clocks.
    fn run_power(
        &self,
        core: CoreId,
        (pmd, soc): (Millivolts, Millivolts),
        thermal: &ThermalModel,
        cycles: u64,
        mean_activity: f64,
        counters: &CounterFile,
    ) -> (f64, f64) {
        let freq = self.pmd_freq[core.pmd().index()];
        let runtime_s = cycles as f64 / (freq.as_f64() * 1e6);
        let mut op = OperatingPoint::idle_nominal();
        op.pmd_voltage = pmd;
        op.soc_voltage = soc;
        op.pmd_freq = self.pmd_freq;
        op.core_activity[core.index()] = mean_activity;
        let mem_rate = counters.rate(PmuEvent::L2DCacheRefill, PmuEvent::InstRetired);
        op.mem_activity = (mem_rate * 20.0).min(1.0);
        op.die_temp_c = thermal.die_temp_c();
        (runtime_s, self.power.total_watts(&op))
    }

    /// Everything after the machine, shared by [`System::run`] and
    /// [`System::replay`]: the outcome and a hang's heartbeat, runtime,
    /// power, energy and the thermal step, and the EDAC drain with its
    /// trace events.
    fn complete_run(
        &mut self,
        program: &str,
        dataset: &str,
        core: CoreId,
        digest: OutputDigest,
        report: MachineReport,
    ) -> RunRecord {
        let outcome = match report.status {
            MachineStatus::Healthy => RunOutcome::Completed,
            MachineStatus::AppCrashed => RunOutcome::AppCrashed,
            MachineStatus::SysHung => RunOutcome::SystemCrashed,
        };
        if outcome == RunOutcome::SystemCrashed {
            self.responsive = false;
        }

        // Energy/thermal accounting over the modelled runtime.
        let (runtime_s, watts) = self.run_power(
            core,
            (self.supplies.pmd(), self.supplies.soc()),
            &self.thermal,
            report.cycles,
            report.mean_activity,
            &report.counters,
        );
        self.energy.accumulate(watts, runtime_s);
        self.thermal.step(watts, runtime_s.min(1.0));

        let drained = self.edac.drain();
        let ce = drained
            .iter()
            .filter(|r| r.kind == EdacKind::Corrected)
            .count()
            + report.detected_faults as usize;
        let ue = drained
            .iter()
            .filter(|r| r.kind == EdacKind::Uncorrected)
            .count();
        for rec in &drained {
            self.observe(|| TraceEvent::CacheErrorReported {
                level: rec.level.to_string(),
                instance: rec.instance,
                corrected: rec.kind == EdacKind::Corrected,
            });
        }

        RunRecord {
            program: program.to_owned(),
            dataset: dataset.to_owned(),
            core,
            pmd_mv: self.supplies.pmd(),
            soc_mv: self.supplies.soc(),
            freq: self.pmd_freq[core.pmd().index()],
            outcome,
            digest,
            corrected_errors: ce,
            uncorrected_errors: ue,
            timing_faults: report.timing_faults,
            fault_samples: report.fault_samples,
            silent_corruptions: report.silent_corruptions,
            counters: report.counters,
            cycles: report.cycles,
            instructions: report.instructions,
            runtime_s,
            energy_j: watts * runtime_s,
            stress_mass: report.stress_mass,
            fault_free: report.fault_free,
        }
    }
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("spec", &self.spec)
            .field("supplies", &self.supplies)
            .field("pmd_freq", &self.pmd_freq)
            .field("responsive", &self.responsive)
            .field("boot_count", &self.boot_count)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corner::Corner;
    use crate::volt::Millivolts;

    struct TinyLoop;

    impl Program for TinyLoop {
        fn name(&self) -> &str {
            "tiny-loop"
        }
        fn run(&self, m: &mut Machine<'_>) -> OutputDigest {
            let base = m.alloc(256);
            for i in 0..256u64 {
                m.store_f64(base.offset(i), i as f64);
            }
            let mut acc = 0.0;
            for i in 0..256u64 {
                let v = m.load_f64(base.offset(i));
                let scaled = m.fmul(v, 3.0);
                acc = m.fadd(acc, scaled);
                let _ = m.branch(i % 2 == 0);
            }
            let mut d = OutputDigest::new();
            d.absorb_f64(acc);
            d
        }
    }

    fn sys() -> System {
        System::new(ChipSpec::new(Corner::Ttt, 0), SystemConfig::default())
    }

    #[test]
    fn nominal_run_completes_with_stable_digest() {
        let mut s = sys();
        let a = s.run(&TinyLoop, CoreId::new(0), 1).unwrap();
        let b = s.run(&TinyLoop, CoreId::new(0), 2).unwrap();
        assert_eq!(a.outcome, RunOutcome::Completed);
        assert_eq!(a.digest, b.digest, "nominal output must be deterministic");
        assert_eq!(a.corrected_errors, 0);
        assert_eq!(a.silent_corruptions, 0);
        assert!(a.energy_j > 0.0);
        assert!(a.runtime_s > 0.0);
    }

    #[test]
    fn deep_undervolt_eventually_hangs_and_blocks_runs() {
        let mut s = sys();
        s.slimpro_mut()
            .set_pmd_voltage(Millivolts::new(820))
            .unwrap();
        let mut hung = false;
        for seed in 0..20 {
            match s.run(&TinyLoop, CoreId::new(0), seed) {
                Ok(r) => {
                    if r.outcome == RunOutcome::SystemCrashed {
                        hung = true;
                        break;
                    }
                }
                Err(UnresponsiveError) => unreachable!("we break on hang"),
            }
        }
        assert!(hung, "820mV at 2.4GHz must hang the TTT chip");
        assert!(!s.is_responsive());
        assert_eq!(s.run(&TinyLoop, CoreId::new(0), 99), Err(UnresponsiveError));
        let boots = s.boot_count();
        s.power_cycle();
        assert!(s.is_responsive());
        assert_eq!(s.boot_count(), boots + 1);
        // Power cycle restores nominal voltage.
        assert_eq!(s.supplies().pmd(), crate::volt::PMD_NOMINAL);
        let r = s.run(&TinyLoop, CoreId::new(0), 123).unwrap();
        assert_eq!(r.outcome, RunOutcome::Completed);
    }

    #[test]
    fn divided_regime_runs_clean_at_760mv() {
        let mut s = sys();
        {
            let mut sp = s.slimpro_mut();
            for pmd in PmdId::all() {
                sp.set_pmd_frequency(pmd, Megahertz::new(1200)).unwrap();
            }
            sp.set_pmd_voltage(Millivolts::new(760)).unwrap();
        }
        for seed in 0..10 {
            let r = s.run(&TinyLoop, CoreId::new(3), seed).unwrap();
            assert_eq!(r.outcome, RunOutcome::Completed, "seed {seed}");
            assert_eq!(r.silent_corruptions, 0);
        }
    }

    #[test]
    fn run_record_carries_vf_context() {
        let mut s = sys();
        s.slimpro_mut()
            .set_pmd_voltage(Millivolts::new(940))
            .unwrap();
        let r = s.run(&TinyLoop, CoreId::new(5), 0).unwrap();
        assert_eq!(r.pmd_mv, Millivolts::new(940));
        assert_eq!(r.freq, MAX_FREQ);
        assert_eq!(r.core, CoreId::new(5));
        assert_eq!(r.program, "tiny-loop");
    }

    #[test]
    fn observer_reports_rail_sets_without_changing_results() {
        let mut plain = sys();
        let baseline = plain.run(&TinyLoop, CoreId::new(0), 7).unwrap();

        let mut traced = sys();
        let buf = std::sync::Arc::new(margins_trace::EventBuffer::new());
        traced.set_observer(buf.clone());
        traced
            .slimpro_mut()
            .set_pmd_voltage(Millivolts::new(905))
            .unwrap();
        traced
            .slimpro_mut()
            .set_pmd_voltage(crate::volt::PMD_NOMINAL)
            .unwrap();
        let r = traced.run(&TinyLoop, CoreId::new(0), 7).unwrap();
        assert_eq!(r.digest, baseline.digest, "tracing must not perturb runs");
        assert_eq!(r.cycles, baseline.cycles);

        let events = buf.drain();
        assert_eq!(events.len(), 2);
        assert!(matches!(
            &events[0],
            margins_trace::TraceEvent::RailSet { rail, mv: 905 } if rail == "pmd"
        ));
    }
}
