//! Deterministic work accounting for the campaign profiling plane.
//!
//! Every profiled campaign attributes its simulator work — ops retired by
//! the executed kernels, Poisson fault samples drawn, SRAM/ECC events,
//! campaign-cache probes, watchdog recoveries — to one of five pipeline
//! phases. The tallies are pure functions of the campaign's deterministic
//! results (no clocks, no scheduling state), so a profiled trace stream
//! stays byte-identical across reruns and shard counts; wall-clock timing
//! is measured from outside by the `perf/` benchmark, never in these
//! counts.

use margins_sim::CoreId;
use margins_trace::TraceEvent;

/// The pipeline phases work is attributed to, in canonical stream order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Board bring-up: watchdog recoveries re-initializing a hung board.
    BoardInit,
    /// Golden-digest capture runs at nominal conditions.
    GoldenRun,
    /// Voltage-step probe runs dispatched by the exhaustive sweep.
    Probe,
    /// Voltage-step probe runs dispatched by an adaptive search plan.
    SearchStep,
    /// Campaign-cache lookups (golden and step probes, hit or miss).
    CacheLookup,
}

impl Phase {
    /// All phases in canonical order.
    pub const ALL: [Phase; 5] = [
        Phase::BoardInit,
        Phase::GoldenRun,
        Phase::Probe,
        Phase::SearchStep,
        Phase::CacheLookup,
    ];

    /// The phase's serialized name in profile events.
    #[must_use]
    fn name(self) -> &'static str {
        match self {
            Phase::BoardInit => "board_init",
            Phase::GoldenRun => "golden_run",
            Phase::Probe => "probe",
            Phase::SearchStep => "search_step",
            Phase::CacheLookup => "cache_lookup",
        }
    }

    /// Dense index of the phase in canonical order.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Work units consumed by one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkTally {
    /// Ops retired by executed kernels.
    pub ops: u64,
    /// Poisson accounting events the fault model drew.
    pub fault_samples: u64,
    /// SRAM/ECC events observed (corrected + uncorrected).
    pub sram_events: u64,
    /// Campaign-cache probes issued.
    pub cache_probes: u64,
    /// Watchdog recoveries performed.
    pub recoveries: u64,
}

impl WorkTally {
    /// Total work units of the tally, saturating.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.ops
            .saturating_add(self.fault_samples)
            .saturating_add(self.sram_events)
            .saturating_add(self.cache_probes)
            .saturating_add(self.recoveries)
    }

    fn merge(&mut self, other: &WorkTally) {
        self.ops = self.ops.saturating_add(other.ops);
        self.fault_samples = self.fault_samples.saturating_add(other.fault_samples);
        self.sram_events = self.sram_events.saturating_add(other.sram_events);
        self.cache_probes = self.cache_probes.saturating_add(other.cache_probes);
        self.recoveries = self.recoveries.saturating_add(other.recoveries);
    }
}

/// Per-phase work tallies of one sweep (or, merged, of a whole campaign).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseTallies {
    tallies: [WorkTally; 5],
}

impl PhaseTallies {
    /// Zeroed tallies.
    #[must_use]
    pub fn new() -> Self {
        PhaseTallies::default()
    }

    /// The tally of one phase.
    #[must_use]
    pub fn get(&self, phase: Phase) -> &WorkTally {
        &self.tallies[phase.index()]
    }

    /// Attributes one executed run's work to `phase`.
    pub(crate) fn record_run(
        &mut self,
        phase: Phase,
        ops: u64,
        fault_samples: u64,
        sram_events: u64,
    ) {
        let t = &mut self.tallies[phase.index()];
        t.ops = t.ops.saturating_add(ops);
        t.fault_samples = t.fault_samples.saturating_add(fault_samples);
        t.sram_events = t.sram_events.saturating_add(sram_events);
    }

    /// Counts one campaign-cache probe.
    pub(crate) fn record_cache_probe(&mut self) {
        let t = &mut self.tallies[Phase::CacheLookup.index()];
        t.cache_probes = t.cache_probes.saturating_add(1);
    }

    /// Counts `n` watchdog recoveries against board init.
    pub(crate) fn record_recoveries(&mut self, n: u64) {
        let t = &mut self.tallies[Phase::BoardInit.index()];
        t.recoveries = t.recoveries.saturating_add(n);
    }

    /// Accumulates another sweep's tallies into this one.
    pub fn merge(&mut self, other: &PhaseTallies) {
        for (a, b) in self.tallies.iter_mut().zip(&other.tallies) {
            a.merge(b);
        }
    }

    /// Iterates `(phase, tally)` pairs in canonical order.
    fn iter(&self) -> impl Iterator<Item = (Phase, &WorkTally)> + '_ {
        Phase::ALL.iter().map(move |p| (*p, self.get(*p)))
    }

    /// Total kernel ops retired across every phase, saturating — zero for
    /// a fully cache-replayed campaign, since replays execute no machine
    /// probes and cached entries retain no op counts.
    #[must_use]
    pub fn executed_ops(&self) -> u64 {
        self.tallies
            .iter()
            .fold(0u64, |acc, t| acc.saturating_add(t.ops))
    }

    /// The per-sweep [`TraceEvent::ProfileSample`] records of these
    /// tallies, one per phase in canonical order.
    #[must_use]
    pub(crate) fn sample_events(
        &self,
        program: &str,
        dataset: &str,
        core: CoreId,
    ) -> Vec<TraceEvent> {
        self.iter()
            .map(|(phase, t)| TraceEvent::ProfileSample {
                program: program.to_owned(),
                dataset: dataset.to_owned(),
                core: core.index() as u8,
                phase: phase.name().to_owned(),
                ops: t.ops,
                fault_samples: t.fault_samples,
                sram_events: t.sram_events,
                cache_probes: t.cache_probes,
                recoveries: t.recoveries,
            })
            .collect()
    }

    /// The campaign-level [`TraceEvent::ProfilePhase`] rollups of these
    /// (merged) tallies, one per phase in canonical order.
    #[must_use]
    pub(crate) fn phase_events(&self, sweeps: u64) -> Vec<TraceEvent> {
        self.iter()
            .map(|(phase, t)| TraceEvent::ProfilePhase {
                phase: phase.name().to_owned(),
                sweeps,
                ops: t.ops,
                fault_samples: t.fault_samples,
                sram_events: t.sram_events,
                cache_probes: t.cache_probes,
                recoveries: t.recoveries,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_are_dense_and_canonically_ordered() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(
            names,
            [
                "board_init",
                "golden_run",
                "probe",
                "search_step",
                "cache_lookup"
            ]
        );
    }

    #[test]
    fn recording_and_merging_accumulate_per_phase() {
        let mut a = PhaseTallies::new();
        a.record_run(Phase::GoldenRun, 100, 10, 0);
        a.record_run(Phase::Probe, 500, 50, 3);
        a.record_cache_probe();
        a.record_recoveries(2);

        let mut b = PhaseTallies::new();
        b.record_run(Phase::Probe, 250, 25, 1);
        b.record_cache_probe();

        a.merge(&b);
        assert_eq!(a.get(Phase::GoldenRun).ops, 100);
        assert_eq!(a.get(Phase::Probe).ops, 750);
        assert_eq!(a.get(Phase::Probe).fault_samples, 75);
        assert_eq!(a.get(Phase::Probe).sram_events, 4);
        assert_eq!(a.get(Phase::CacheLookup).cache_probes, 2);
        assert_eq!(a.get(Phase::BoardInit).recoveries, 2);
        assert_eq!(a.get(Phase::SearchStep).total(), 0);
    }

    #[test]
    fn tallies_saturate_instead_of_wrapping() {
        let mut t = PhaseTallies::new();
        t.record_run(Phase::Probe, u64::MAX, 0, 0);
        t.record_run(Phase::Probe, 5, 0, 0);
        assert_eq!(t.get(Phase::Probe).ops, u64::MAX);
        let clone = t.clone();
        t.merge(&clone);
        assert_eq!(t.get(Phase::Probe).ops, u64::MAX);
        assert_eq!(t.get(Phase::Probe).total(), u64::MAX);
    }

    #[test]
    fn emitted_events_cover_every_phase_in_order() {
        let mut t = PhaseTallies::new();
        t.record_run(Phase::SearchStep, 42, 7, 0);
        let samples = t.sample_events("bwaves", "ref", CoreId::new(3));
        assert_eq!(samples.len(), 5);
        match &samples[3] {
            TraceEvent::ProfileSample {
                program,
                core,
                phase,
                ops,
                fault_samples,
                ..
            } => {
                assert_eq!(program, "bwaves");
                assert_eq!(*core, 3);
                assert_eq!(phase, "search_step");
                assert_eq!(*ops, 42);
                assert_eq!(*fault_samples, 7);
            }
            other => panic!("unexpected event {other:?}"),
        }
        let rollups = t.phase_events(9);
        assert_eq!(rollups.len(), 5);
        assert!(rollups
            .iter()
            .all(|e| matches!(e, TraceEvent::ProfilePhase { sweeps: 9, .. })));
    }
}
