//! Campaign configuration — the initialization phase of Figure 2.
//!
//! "During the initialization phase, a user can declare a benchmark list
//! with corresponding input datasets to run in any desirable
//! characterization setup. The characterization setup includes the voltage
//! and frequency (V/F) values on which the experiment will take place and
//! the cores where the benchmark will be run."

use crate::search::SearchStrategy;
use margins_sim::freq::MAX_FREQ;
use margins_sim::volt::{SOC_NOMINAL, VOLTAGE_STEP_MV};
use margins_sim::{CoreId, Enhancements, Megahertz, Millivolts};
use margins_workloads::Dataset;
use std::fmt;

/// Which supply rail a campaign sweeps (§2.1: the PMD rail and the
/// PCP/SoC rail are independently regulated).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SweptRail {
    /// The shared PMD (cores + L1 + L2) rail — the paper's experiments.
    #[default]
    Pmd,
    /// The PCP/SoC (L3, memory controllers, switch) rail — an extension
    /// experiment exposing the ECC-proxy behaviour of §4.4.
    PcpSoc,
}

impl SweptRail {
    /// The rail's label in trace events, cache keys and `--rail`.
    #[must_use]
    pub(crate) fn label(self) -> &'static str {
        match self {
            SweptRail::Pmd => "pmd",
            SweptRail::PcpSoc => "soc",
        }
    }

    /// The rail a label names: `"pmd"` or `"soc"`.
    #[must_use]
    pub fn from_label(label: &str) -> Option<SweptRail> {
        [SweptRail::Pmd, SweptRail::PcpSoc]
            .into_iter()
            .find(|rail| rail.label() == label)
    }
}

/// Clock of every PMD but the one hosting the core under characterization
/// ("the framework sets the lowest frequency to all cores (300 MHz) but
/// keeps the frequency high to the cores under characterization", §2.2.1).
pub(crate) const PARKED_FREQUENCY: Megahertz = Megahertz::new(300);

/// A benchmark selection: name plus input dataset.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BenchmarkRef {
    /// Benchmark name (must exist in `margins_workloads::suite`).
    pub name: String,
    /// Input dataset.
    pub dataset: Dataset,
}

/// The full configuration of one characterization campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Benchmarks (with datasets) to characterize.
    pub benchmarks: Vec<BenchmarkRef>,
    /// Cores to characterize, one at a time.
    pub cores: Vec<CoreId>,
    /// Runs per (benchmark, core, voltage) configuration — the paper's ten
    /// campaign iterations.
    pub iterations: u32,
    /// First (highest) voltage of the downward sweep.
    pub start_voltage: Millivolts,
    /// Lowest voltage the sweep may reach.
    pub floor_voltage: Millivolts,
    /// Clock of the PMD hosting the core under characterization.
    pub target_frequency: Megahertz,
    /// Stop descending after this many consecutive all-SC voltage steps
    /// (0 = always sweep to the floor).
    pub crash_stop_steps: u32,
    /// Base seed individualizing the campaign's run randomness.
    pub seed: u64,
    /// The rail the sweep scales (default: the PMD rail, as in the paper).
    pub rail: SweptRail,
    /// §6 hardware enhancements of the simulated chip revision under test.
    pub enhancements: Enhancements,
    /// How each item visits the voltage grid (default: the exhaustive
    /// top-down sweep of the paper's massive campaign).
    pub search: SearchStrategy,
    /// Whether traced executions also emit the deterministic work-accounting
    /// profile ([`margins_trace::TraceEvent::ProfileSample`] per sweep plus
    /// campaign-level [`margins_trace::TraceEvent::ProfilePhase`] rollups).
    pub profile: bool,
}

impl CampaignConfig {
    /// Starts building a configuration.
    #[must_use]
    pub fn builder() -> CampaignConfigBuilder {
        CampaignConfigBuilder::default()
    }

    /// Number of 5 mV steps in the sweep (inclusive of both ends).
    #[must_use]
    pub fn step_count(&self) -> u32 {
        (self.start_voltage.get() - self.floor_voltage.get()) / VOLTAGE_STEP_MV + 1
    }

    /// Iterator over the campaign's work items in canonical order —
    /// benchmarks-major, exactly the order a serial execution visits them
    /// and the order the merged trace stream presents them. Yields
    /// `(benchmark index, core)` pairs; the enumeration position is the
    /// item's canonical index.
    pub(crate) fn work_items(&self) -> impl Iterator<Item = (usize, CoreId)> + '_ {
        self.benchmarks
            .iter()
            .enumerate()
            .flat_map(move |(bi, _)| self.cores.iter().map(move |c| (bi, *c)))
    }
}

/// Builder for [`CampaignConfig`].
#[derive(Debug, Clone)]
pub struct CampaignConfigBuilder {
    benchmarks: Vec<BenchmarkRef>,
    cores: Vec<CoreId>,
    iterations: u32,
    start_voltage: Millivolts,
    floor_voltage: Millivolts,
    target_frequency: Megahertz,
    crash_stop_steps: u32,
    seed: u64,
    rail: SweptRail,
    enhancements: Enhancements,
    search: SearchStrategy,
    profile: bool,
}

impl Default for CampaignConfigBuilder {
    fn default() -> Self {
        CampaignConfigBuilder {
            benchmarks: Vec::new(),
            cores: CoreId::all().collect(),
            iterations: 10,
            // The band [930, 820] covers every chip's safe/unsafe/crash
            // structure at 2.4 GHz with margin; the region above 930 mV is
            // verified safe by the nominal golden runs.
            start_voltage: Millivolts::new(930),
            floor_voltage: Millivolts::new(820),
            target_frequency: MAX_FREQ,
            crash_stop_steps: 2,
            seed: 0xC0FF_EE00,
            rail: SweptRail::Pmd,
            enhancements: Enhancements::stock(),
            search: SearchStrategy::Exhaustive,
            profile: false,
        }
    }
}

impl CampaignConfigBuilder {
    /// Selects benchmarks by name, all with the `ref` dataset.
    #[must_use]
    pub fn benchmarks<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.benchmarks = names
            .into_iter()
            .map(|n| BenchmarkRef {
                name: n.into(),
                dataset: Dataset::Ref,
            })
            .collect();
        self
    }

    /// Selects explicit benchmark/dataset pairs.
    #[must_use]
    pub fn benchmark_refs<I>(mut self, refs: I) -> Self
    where
        I: IntoIterator<Item = BenchmarkRef>,
    {
        self.benchmarks = refs.into_iter().collect();
        self
    }

    /// Selects the cores to characterize (default: all eight).
    #[must_use]
    pub fn cores<I>(mut self, cores: I) -> Self
    where
        I: IntoIterator<Item = CoreId>,
    {
        self.cores = cores.into_iter().collect();
        self
    }

    /// Sets the per-configuration iteration count (default 10).
    #[must_use]
    pub fn iterations(mut self, n: u32) -> Self {
        self.iterations = n;
        self
    }

    /// Sets the sweep's starting (highest) voltage.
    #[must_use]
    pub fn start_voltage(mut self, v: Millivolts) -> Self {
        self.start_voltage = v;
        self
    }

    /// Sets the sweep's floor voltage.
    #[must_use]
    pub fn floor_voltage(mut self, v: Millivolts) -> Self {
        self.floor_voltage = v;
        self
    }

    /// Sets the clock of the PMD under characterization (default 2.4 GHz).
    #[must_use]
    pub fn target_frequency(mut self, f: Megahertz) -> Self {
        self.target_frequency = f;
        self
    }

    /// Sets the all-SC early-stop threshold (0 disables).
    #[must_use]
    pub fn crash_stop_steps(mut self, n: u32) -> Self {
        self.crash_stop_steps = n;
        self
    }

    /// Sets the campaign seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the rail to sweep (default: PMD).
    #[must_use]
    pub fn rail(mut self, rail: SweptRail) -> Self {
        self.rail = rail;
        self
    }

    /// Activates §6 hardware enhancements on the simulated chip revision.
    #[must_use]
    pub fn enhancements(mut self, enhancements: Enhancements) -> Self {
        self.enhancements = enhancements;
        self
    }

    /// Selects the Vmin search strategy (default: exhaustive sweep).
    #[must_use]
    pub fn search(mut self, strategy: SearchStrategy) -> Self {
        self.search = strategy;
        self
    }

    /// Enables the deterministic work-accounting profile on traced
    /// executions (default off: streams stay byte-identical to pre-profile
    /// campaigns).
    #[must_use]
    pub fn profile(mut self, yes: bool) -> Self {
        self.profile = yes;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the configuration is inconsistent
    /// (empty benchmark/core lists, inverted or off-step voltage range,
    /// invalid frequency, zero iterations).
    pub fn build(self) -> Result<CampaignConfig, ConfigError> {
        if self.benchmarks.is_empty() {
            return Err(ConfigError::NoBenchmarks);
        }
        if self.cores.is_empty() {
            return Err(ConfigError::NoCores);
        }
        if self.iterations == 0 {
            return Err(ConfigError::ZeroIterations);
        }
        if self.start_voltage < self.floor_voltage {
            return Err(ConfigError::InvertedRange {
                start: self.start_voltage,
                floor: self.floor_voltage,
            });
        }
        for v in [self.start_voltage, self.floor_voltage] {
            if v.get() % VOLTAGE_STEP_MV != 0 {
                return Err(ConfigError::OffStepVoltage(v));
            }
        }
        if self.rail == SweptRail::PcpSoc && self.start_voltage > SOC_NOMINAL {
            return Err(ConfigError::AboveRailNominal {
                requested: self.start_voltage,
                nominal: SOC_NOMINAL,
            });
        }
        if !self.target_frequency.is_valid_pmd_frequency() {
            return Err(ConfigError::InvalidFrequency(self.target_frequency));
        }
        for b in &self.benchmarks {
            if margins_workloads::suite::by_name(&b.name, b.dataset).is_none() {
                return Err(ConfigError::UnknownBenchmark(b.name.clone()));
            }
        }
        Ok(CampaignConfig {
            benchmarks: self.benchmarks,
            cores: self.cores,
            iterations: self.iterations,
            start_voltage: self.start_voltage,
            floor_voltage: self.floor_voltage,
            target_frequency: self.target_frequency,
            crash_stop_steps: self.crash_stop_steps,
            seed: self.seed,
            rail: self.rail,
            enhancements: self.enhancements,
            search: self.search,
            profile: self.profile,
        })
    }
}

/// Validation error of a campaign configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The benchmark list is empty.
    NoBenchmarks,
    /// The core list is empty.
    NoCores,
    /// Zero iterations requested.
    ZeroIterations,
    /// The floor voltage exceeds the start voltage.
    InvertedRange {
        /// Configured start voltage.
        start: Millivolts,
        /// Configured floor voltage.
        floor: Millivolts,
    },
    /// A voltage is not a multiple of the 5 mV regulator step.
    OffStepVoltage(Millivolts),
    /// A frequency is not producible by the PMD clock generator.
    InvalidFrequency(Megahertz),
    /// A benchmark name/dataset pair does not exist in the suite.
    UnknownBenchmark(String),
    /// The sweep start exceeds the selected rail's nominal voltage.
    AboveRailNominal {
        /// Requested start voltage.
        requested: Millivolts,
        /// The rail's nominal voltage.
        nominal: Millivolts,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NoBenchmarks => f.write_str("benchmark list is empty"),
            ConfigError::NoCores => f.write_str("core list is empty"),
            ConfigError::ZeroIterations => f.write_str("iterations must be at least 1"),
            ConfigError::InvertedRange { start, floor } => {
                write!(f, "floor voltage {floor} exceeds start voltage {start}")
            }
            ConfigError::OffStepVoltage(v) => {
                write!(f, "voltage {v} is not a multiple of the 5mV step")
            }
            ConfigError::InvalidFrequency(freq) => {
                write!(f, "frequency {freq} is not a valid PMD frequency")
            }
            ConfigError::UnknownBenchmark(n) => write!(f, "unknown benchmark '{n}'"),
            ConfigError::AboveRailNominal { requested, nominal } => write!(
                f,
                "sweep start {requested} exceeds the selected rail's nominal {nominal}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_build_a_full_figure4_style_config() {
        let c = CampaignConfig::builder()
            .benchmarks(["bwaves", "mcf"])
            .build()
            .unwrap();
        assert_eq!(c.iterations, 10);
        assert_eq!(c.cores.len(), 8);
        assert_eq!(c.target_frequency, MAX_FREQ);
        assert_eq!(PARKED_FREQUENCY.get(), 300);
        assert!(PARKED_FREQUENCY.is_valid_pmd_frequency());
        assert_eq!(c.step_count(), 23);
    }

    #[test]
    fn rail_labels_name_their_rail() {
        for rail in [SweptRail::Pmd, SweptRail::PcpSoc] {
            assert_eq!(SweptRail::from_label(rail.label()), Some(rail));
        }
        assert_eq!(SweptRail::from_label("PMD"), None);
    }

    #[test]
    fn search_strategy_defaults_to_exhaustive_and_is_selectable() {
        let c = CampaignConfig::builder()
            .benchmarks(["namd"])
            .build()
            .unwrap();
        assert_eq!(c.search, SearchStrategy::Exhaustive);
        let c = CampaignConfig::builder()
            .benchmarks(["namd"])
            .search(SearchStrategy::Bisection)
            .build()
            .unwrap();
        assert_eq!(c.search, SearchStrategy::Bisection);
    }

    #[test]
    fn validation_catches_inconsistencies() {
        let base = || CampaignConfig::builder().benchmarks(["namd"]);
        assert_eq!(
            CampaignConfig::builder().build().unwrap_err(),
            ConfigError::NoBenchmarks
        );
        assert_eq!(base().cores([]).build().unwrap_err(), ConfigError::NoCores);
        assert_eq!(
            base().iterations(0).build().unwrap_err(),
            ConfigError::ZeroIterations
        );
        assert!(matches!(
            base()
                .start_voltage(Millivolts::new(800))
                .floor_voltage(Millivolts::new(900))
                .build()
                .unwrap_err(),
            ConfigError::InvertedRange { .. }
        ));
        assert!(matches!(
            base()
                .start_voltage(Millivolts::new(902))
                .build()
                .unwrap_err(),
            ConfigError::OffStepVoltage(_)
        ));
        assert!(matches!(
            base()
                .target_frequency(Megahertz::new(1000))
                .build()
                .unwrap_err(),
            ConfigError::InvalidFrequency(_)
        ));
        assert!(matches!(
            CampaignConfig::builder()
                .benchmarks(["doom"])
                .build()
                .unwrap_err(),
            ConfigError::UnknownBenchmark(_)
        ));
    }

    #[test]
    fn train_dataset_validation_respects_suite() {
        let ok = CampaignConfig::builder()
            .benchmark_refs([BenchmarkRef {
                name: "bwaves".into(),
                dataset: Dataset::Train,
            }])
            .build();
        assert!(ok.is_ok());
        let bad = CampaignConfig::builder()
            .benchmark_refs([BenchmarkRef {
                name: "lbm".into(),
                dataset: Dataset::Train,
            }])
            .build();
        assert!(matches!(bad.unwrap_err(), ConfigError::UnknownBenchmark(_)));
    }
}
