//! Folding a reconstructed span tree into typed campaign analytics.
//!
//! The summary is a pure function of the record sequence: every tally is
//! accumulated in stream order, every map is a [`BTreeMap`], and nothing
//! outside the records (paths, clocks, environment) enters the result —
//! the foundation for byte-deterministic reports.

use margins_trace::span::{CampaignSpan, SpanTree, SweepSpan};
use margins_trace::{reconstruct, SpanError, TraceEvent, TraceRecord};
use std::collections::BTreeMap;

/// Power cycles within one sweep at or above which the sweep is flagged as
/// a *recovery storm* — the §2.2.1 situation where the watchdog fights a
/// crashing configuration instead of the sweep making progress.
const RECOVERY_STORM_THRESHOLD: u32 = 3;

/// Everything a trace stream contained, summarized.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSummary {
    /// Total records in the stream.
    pub records: u64,
    /// Per-campaign analytics, in stream order.
    pub campaigns: Vec<CampaignSummary>,
    /// Governor decisions outside any campaign span.
    pub standalone_decisions: Vec<DecisionSummary>,
}

/// One campaign, summarized.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSummary {
    /// Chip identity.
    pub chip: String,
    /// Swept rail.
    pub rail: String,
    /// Benchmarks in the campaign grid.
    pub benchmarks: u32,
    /// Target cores in the grid.
    pub cores: u32,
    /// Voltage steps in the grid.
    pub steps: u32,
    /// Iterations per step.
    pub iterations: u32,
    /// Logical work shards.
    pub shards: u32,
    /// Campaign seed.
    pub seed: u64,
    /// Runs declared by `CampaignFinished`.
    pub declared_runs: u64,
    /// Power cycles declared by `CampaignFinished`.
    pub declared_power_cycles: u32,
    /// Runs counted from `RunCompleted` leaves.
    pub runs: u64,
    /// Golden captures counted.
    pub goldens: u64,
    /// Power cycles counted from `WatchdogPowerCycle` leaves.
    pub power_cycles: u32,
    /// Modelled campaign duration — the closing record's `t_model_s`.
    pub modelled_time_s: f64,
    /// Total modelled energy over all runs, joules.
    pub energy_j: f64,
    /// Total modelled runtime over all runs, seconds.
    pub runtime_s: f64,
    /// Runs per observed effect combination (`"NO"`, `"SDC+CE"`, …).
    pub outcomes: BTreeMap<String, u64>,
    /// Runs with any abnormal effect.
    pub abnormal_runs: u64,
    /// Sum of per-run severities.
    pub severity_sum: f64,
    /// Largest per-run severity.
    pub severity_max: f64,
    /// Campaign-cache lookups.
    pub cache_lookups: u64,
    /// Campaign-cache hits.
    pub cache_hits: u64,
    /// Adaptive-search totals, when any sweep concluded a search.
    pub search: Option<SearchTotals>,
    /// Sweeps whose power-cycle count reached the storm threshold.
    pub storms: Vec<RecoveryStorm>,
    /// Campaign-scoped governor decisions.
    pub decisions: Vec<DecisionSummary>,
    /// Per-sweep analytics, in stream order.
    pub sweeps: Vec<SweepSummary>,
}

impl CampaignSummary {
    /// A stable human label, e.g. `TTT#0/pmd`.
    #[must_use]
    pub(crate) fn label(&self) -> String {
        format!("{}/{}", self.chip, self.rail)
    }

    /// Cache hit rate in [0, 1]; `None` when no lookup happened.
    #[must_use]
    pub(crate) fn cache_hit_rate(&self) -> Option<f64> {
        (self.cache_lookups > 0).then(|| self.cache_hits as f64 / self.cache_lookups as f64)
    }
}

/// One (benchmark, core) sweep, summarized.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSummary {
    /// Benchmark name.
    pub program: String,
    /// Dataset label.
    pub dataset: String,
    /// Target core index.
    pub core: u8,
    /// Logical shard index.
    pub shard: u32,
    /// Runs declared by `SweepFinished`.
    pub declared_runs: u32,
    /// Runs counted from `RunCompleted` leaves.
    pub runs: u64,
    /// Runs with any abnormal effect.
    pub abnormal_runs: u64,
    /// Golden captures.
    pub goldens: u64,
    /// Voltage steps executed on a board (`VoltageStepped`) — cache
    /// replays emit runs without a step, so this counts machine probes.
    pub machine_probes: u64,
    /// Watchdog power cycles inside the sweep.
    pub power_cycles: u32,
    /// Campaign-cache lookups.
    pub cache_lookups: u64,
    /// Campaign-cache hits.
    pub cache_hits: u64,
    /// Runs per observed effect combination.
    pub outcomes: BTreeMap<String, u64>,
    /// Sum of per-run severities.
    pub severity_sum: f64,
    /// Largest per-run severity.
    pub severity_max: f64,
    /// Total modelled runtime, seconds.
    pub runtime_s: f64,
    /// Total modelled energy, joules.
    pub energy_j: f64,
    /// Lowest voltage any run executed at, millivolts.
    pub lowest_mv: Option<u32>,
    /// Voltage of an `EarlyStop`, when the sweep stopped early.
    pub early_stop_mv: Option<u32>,
    /// Search conclusion, when the sweep ran an adaptive strategy.
    pub search: Option<SearchTotals>,
}

impl SweepSummary {
    /// A stable human label, e.g. `bwaves:ref@core0`.
    #[must_use]
    pub(crate) fn label(&self) -> String {
        format!("{}:{}@core{}", self.program, self.dataset, self.core)
    }

    /// Whether the sweep's recoveries reached the storm threshold.
    #[must_use]
    pub(crate) fn recovery_storm(&self) -> bool {
        self.power_cycles >= RECOVERY_STORM_THRESHOLD
    }
}

/// Probe-count totals of adaptive voltage searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchTotals {
    /// Steps actually probed on a board.
    pub probed_steps: u64,
    /// Steps the exhaustive grid would have probed.
    pub grid_steps: u64,
    /// Probes answered from the campaign cache.
    pub cache_hits: u64,
}

impl SearchTotals {
    /// Fraction of grid probes the strategy avoided, in [0, 1].
    #[must_use]
    pub(crate) fn savings(&self) -> f64 {
        if self.grid_steps == 0 {
            return 0.0;
        }
        1.0 - self.probed_steps as f64 / self.grid_steps as f64
    }
}

/// One sweep flagged as a recovery storm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryStorm {
    /// The sweep's label.
    pub sweep: String,
    /// Its power-cycle count.
    pub power_cycles: u32,
}

/// One governor decision.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionSummary {
    /// Chosen rail voltage, millivolts.
    pub voltage_mv: u32,
    /// Guardband steps above the limiting Vmin.
    pub guardband_steps: u32,
    /// Power relative to nominal.
    pub relative_power: f64,
    /// Performance relative to nominal.
    pub relative_performance: f64,
    /// Projected energy savings.
    pub energy_savings: f64,
}

/// Summarizes a record sequence.
///
/// # Errors
///
/// Returns [`SpanError`] when the span nesting is invalid.
pub fn summarize_records(records: &[TraceRecord]) -> Result<StreamSummary, SpanError> {
    Ok(summarize(&reconstruct(records)?))
}

/// Summarizes an already-reconstructed span tree.
#[must_use]
fn summarize(tree: &SpanTree) -> StreamSummary {
    let campaigns: Vec<CampaignSummary> = tree.campaigns.iter().map(summarize_campaign).collect();
    let records = campaigns
        .iter()
        .zip(&tree.campaigns)
        .map(|(_, span)| span.records())
        .sum::<u64>()
        + tree.standalone.len() as u64;
    StreamSummary {
        records,
        campaigns,
        standalone_decisions: tree.standalone.iter().filter_map(decision_of).collect(),
    }
}

fn summarize_campaign(span: &CampaignSpan) -> CampaignSummary {
    let sweeps: Vec<SweepSummary> = span.sweeps.iter().map(summarize_sweep).collect();

    let mut outcomes: BTreeMap<String, u64> = BTreeMap::new();
    let mut search: Option<SearchTotals> = None;
    let mut storms = Vec::new();
    for sweep in &sweeps {
        for (effects, count) in &sweep.outcomes {
            *outcomes.entry(effects.clone()).or_insert(0) += count;
        }
        if let Some(totals) = sweep.search {
            let agg = search.get_or_insert_with(SearchTotals::default);
            agg.probed_steps += totals.probed_steps;
            agg.grid_steps += totals.grid_steps;
            agg.cache_hits += totals.cache_hits;
        }
        if sweep.recovery_storm() {
            storms.push(RecoveryStorm {
                sweep: sweep.label(),
                power_cycles: sweep.power_cycles,
            });
        }
    }

    CampaignSummary {
        chip: span.chip.clone(),
        rail: span.rail.clone(),
        benchmarks: span.benchmarks,
        cores: span.cores,
        steps: span.steps,
        iterations: span.iterations,
        shards: span.shards,
        seed: span.seed,
        declared_runs: span.declared_runs,
        declared_power_cycles: span.declared_power_cycles,
        runs: sweeps.iter().map(|s| s.runs).sum(),
        goldens: sweeps.iter().map(|s| s.goldens).sum(),
        power_cycles: sweeps.iter().map(|s| s.power_cycles).sum(),
        modelled_time_s: span.finished.t_model_s,
        energy_j: sweeps.iter().map(|s| s.energy_j).sum(),
        runtime_s: sweeps.iter().map(|s| s.runtime_s).sum(),
        outcomes,
        abnormal_runs: sweeps.iter().map(|s| s.abnormal_runs).sum(),
        severity_sum: sweeps.iter().map(|s| s.severity_sum).sum(),
        severity_max: sweeps.iter().map(|s| s.severity_max).fold(0.0, f64::max),
        cache_lookups: sweeps.iter().map(|s| s.cache_lookups).sum(),
        cache_hits: sweeps.iter().map(|s| s.cache_hits).sum(),
        search,
        storms,
        decisions: span.decisions.iter().filter_map(decision_of).collect(),
        sweeps,
    }
}

fn summarize_sweep(span: &SweepSpan) -> SweepSummary {
    let mut s = SweepSummary {
        program: span.program.clone(),
        dataset: span.dataset.clone(),
        core: span.core,
        shard: span.shard,
        declared_runs: span.declared_runs,
        runs: 0,
        abnormal_runs: 0,
        goldens: 0,
        machine_probes: 0,
        power_cycles: 0,
        cache_lookups: 0,
        cache_hits: 0,
        outcomes: BTreeMap::new(),
        severity_sum: 0.0,
        severity_max: 0.0,
        runtime_s: 0.0,
        energy_j: 0.0,
        lowest_mv: None,
        early_stop_mv: None,
        search: None,
    };
    for leaf in &span.leaves {
        match &leaf.event {
            TraceEvent::RunCompleted {
                mv,
                effects,
                severity,
                runtime_s,
                energy_j,
                ..
            } => {
                s.runs += 1;
                *s.outcomes.entry(effects.clone()).or_insert(0) += 1;
                if effects != "NO" {
                    s.abnormal_runs += 1;
                }
                s.severity_sum += severity;
                s.severity_max = s.severity_max.max(*severity);
                s.runtime_s += runtime_s;
                s.energy_j += energy_j;
                s.lowest_mv = Some(s.lowest_mv.map_or(*mv, |lo| lo.min(*mv)));
            }
            TraceEvent::GoldenCaptured { .. } => s.goldens += 1,
            TraceEvent::VoltageStepped { .. } => s.machine_probes += 1,
            TraceEvent::WatchdogPowerCycle { .. } => s.power_cycles += 1,
            TraceEvent::CacheLookup { hit, .. } => {
                s.cache_lookups += 1;
                s.cache_hits += u64::from(*hit);
            }
            TraceEvent::EarlyStop { mv, .. } => s.early_stop_mv = Some(*mv),
            TraceEvent::SearchConcluded {
                probed_steps,
                grid_steps,
                cache_hits,
                ..
            } => {
                s.search = Some(SearchTotals {
                    probed_steps: u64::from(*probed_steps),
                    grid_steps: u64::from(*grid_steps),
                    cache_hits: u64::from(*cache_hits),
                });
            }
            _ => {}
        }
    }
    s
}

fn decision_of(record: &TraceRecord) -> Option<DecisionSummary> {
    match &record.event {
        TraceEvent::VoltageDecision {
            voltage_mv,
            guardband_steps,
            relative_power,
            relative_performance,
            energy_savings,
        } => Some(DecisionSummary {
            voltage_mv: *voltage_mv,
            guardband_steps: *guardband_steps,
            relative_power: *relative_power,
            relative_performance: *relative_performance,
            energy_savings: *energy_savings,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use margins_trace::{StreamFinalizer, TraceEvent};

    fn seal(events: Vec<TraceEvent>) -> Vec<TraceRecord> {
        let mut fin = StreamFinalizer::new();
        events.into_iter().map(|e| fin.seal(e)).collect()
    }

    fn run(mv: u32, effects: &str, severity: f64) -> TraceEvent {
        TraceEvent::RunCompleted {
            program: "bwaves".into(),
            dataset: "ref".into(),
            core: 0,
            mv,
            iteration: 0,
            effects: effects.into(),
            severity,
            runtime_s: 0.25,
            energy_j: 0.5,
            corrected_errors: 0,
            uncorrected_errors: 0,
        }
    }

    fn campaign_stream() -> Vec<TraceRecord> {
        seal(vec![
            TraceEvent::CampaignStarted {
                chip: "TTT#0".into(),
                rail: "pmd".into(),
                benchmarks: 1,
                cores: 1,
                steps: 3,
                iterations: 1,
                shards: 1,
                seed: 7,
            },
            TraceEvent::ShardScheduled { shard: 0, items: 3 },
            TraceEvent::SweepStarted {
                program: "bwaves".into(),
                dataset: "ref".into(),
                core: 0,
                shard: 0,
            },
            TraceEvent::GoldenCaptured {
                program: "bwaves".into(),
                dataset: "ref".into(),
                core: 0,
                digest: "00ff".into(),
                runtime_s: 0.25,
            },
            TraceEvent::CacheLookup {
                program: "bwaves".into(),
                dataset: "ref".into(),
                core: 0,
                probe: "step".into(),
                mv: 915,
                hit: true,
            },
            run(915, "NO", 0.0),
            TraceEvent::VoltageStepped {
                rail: "pmd".into(),
                mv: 910,
                step: 1,
            },
            run(910, "SDC+CE", 5.0),
            TraceEvent::WatchdogPowerCycle { recovery: 1 },
            TraceEvent::WatchdogPowerCycle { recovery: 2 },
            TraceEvent::WatchdogPowerCycle { recovery: 3 },
            run(905, "SC", 23.0),
            TraceEvent::EarlyStop {
                program: "bwaves".into(),
                core: 0,
                mv: 905,
                consecutive_all_sc: 1,
            },
            TraceEvent::SearchConcluded {
                program: "bwaves".into(),
                core: 0,
                strategy: "bisection".into(),
                probed_steps: 2,
                grid_steps: 3,
                cache_hits: 1,
            },
            TraceEvent::SweepFinished {
                program: "bwaves".into(),
                dataset: "ref".into(),
                core: 0,
                runs: 3,
            },
            TraceEvent::VoltageDecision {
                voltage_mv: 920,
                guardband_steps: 1,
                relative_power: 0.88,
                relative_performance: 1.0,
                energy_savings: 0.12,
            },
            TraceEvent::CampaignFinished {
                runs: 3,
                power_cycles: 3,
            },
        ])
    }

    #[test]
    fn campaign_tallies_cover_every_dimension() {
        let summary = summarize_records(&campaign_stream()).expect("valid stream");
        assert_eq!(summary.records, 17);
        assert_eq!(summary.campaigns.len(), 1);
        let c = &summary.campaigns[0];
        assert_eq!(c.label(), "TTT#0/pmd");
        assert_eq!((c.runs, c.declared_runs), (3, 3));
        assert_eq!((c.power_cycles, c.declared_power_cycles), (3, 3));
        assert_eq!(c.goldens, 1);
        assert_eq!(c.abnormal_runs, 2);
        assert_eq!(c.outcomes.get("NO"), Some(&1));
        assert_eq!(c.outcomes.get("SDC+CE"), Some(&1));
        assert_eq!(c.outcomes.get("SC"), Some(&1));
        assert_eq!((c.cache_lookups, c.cache_hits), (1, 1));
        assert!((c.severity_sum - 28.0).abs() < 1e-12);
        assert!((c.severity_max - 23.0).abs() < 1e-12);
        assert!((c.energy_j - 1.5).abs() < 1e-12);
        assert_eq!(c.decisions.len(), 1);
        assert_eq!(c.decisions[0].voltage_mv, 920);

        let search = c.search.expect("search concluded");
        assert_eq!((search.probed_steps, search.grid_steps), (2, 3));
        assert!((search.savings() - 1.0 / 3.0).abs() < 1e-12);

        let s = &c.sweeps[0];
        assert_eq!(s.lowest_mv, Some(905));
        assert_eq!(s.early_stop_mv, Some(905));
        assert_eq!(s.machine_probes, 1);
    }

    #[test]
    fn recovery_storms_are_flagged_at_the_threshold() {
        let summary = summarize_records(&campaign_stream()).expect("valid stream");
        let c = &summary.campaigns[0];
        assert!(c.sweeps[0].recovery_storm());
        assert_eq!(
            c.storms,
            vec![RecoveryStorm {
                sweep: "bwaves:ref@core0".into(),
                power_cycles: 3,
            }]
        );
    }

    #[test]
    fn standalone_decisions_and_empty_streams() {
        let records = seal(vec![TraceEvent::VoltageDecision {
            voltage_mv: 890,
            guardband_steps: 1,
            relative_power: 0.85,
            relative_performance: 1.0,
            energy_savings: 0.15,
        }]);
        let summary = summarize_records(&records).expect("valid");
        assert!(summary.campaigns.is_empty());
        assert_eq!(summary.standalone_decisions.len(), 1);
        assert_eq!(summary.records, 1);

        let empty = summarize_records(&[]).expect("empty is valid");
        assert_eq!(empty.records, 0);
        assert!(empty.campaigns.is_empty() && empty.standalone_decisions.is_empty());
    }

    #[test]
    fn search_totals_savings_handles_empty_grid() {
        assert!((SearchTotals::default().savings() - 0.0).abs() < 1e-12);
    }
}
