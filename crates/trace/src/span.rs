//! Reconstructing the campaign → sweep → leaf span tree from a stream.
//!
//! A serialized trace is flat; the analytics layer (`margins-scope`) and
//! the structural validator both need the nesting back. [`reconstruct`]
//! rebuilds it, enforcing exactly the span contract [`validate_jsonl`]
//! documents: campaigns never nest, sweeps live inside campaigns,
//! sweep-scoped leaves live inside sweeps, and every opened span closes
//! before the stream (or the enclosing span) ends. Header fields of the
//! span-opening events are lifted into typed struct fields so consumers
//! never re-match the enum.
//!
//! [`validate_jsonl`]: crate::validate::validate_jsonl

use crate::event::{TraceEvent, TraceRecord};
use std::fmt;

/// A fully reconstructed stream: zero or more sequential campaigns plus
/// any standalone records (governor decisions outside campaign spans).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTree {
    /// The campaigns, in stream order.
    pub campaigns: Vec<CampaignSpan>,
    /// Records outside every campaign span (only `VoltageDecision`).
    pub standalone: Vec<TraceRecord>,
}

/// One campaign span and everything inside it.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpan {
    /// Chip identity from the header.
    pub chip: String,
    /// Swept rail from the header.
    pub rail: String,
    /// Benchmarks in the campaign.
    pub benchmarks: u32,
    /// Target cores.
    pub cores: u32,
    /// Voltage steps in the grid.
    pub steps: u32,
    /// Iterations per configuration.
    pub iterations: u32,
    /// Logical work shards.
    pub shards: u32,
    /// Campaign seed.
    pub seed: u64,
    /// Total runs declared by `CampaignFinished`.
    pub declared_runs: u64,
    /// Power cycles declared by `CampaignFinished`.
    pub declared_power_cycles: u32,
    /// The `CampaignStarted` record.
    pub started: TraceRecord,
    /// The `ShardScheduled` preamble, in stream order.
    pub schedule: Vec<TraceRecord>,
    /// The sweeps, in stream order.
    pub sweeps: Vec<SweepSpan>,
    /// Campaign-scoped records outside any sweep (governor decisions).
    pub decisions: Vec<TraceRecord>,
    /// Campaign-scoped `ProfilePhase` rollups, in stream order.
    pub profile: Vec<TraceRecord>,
    /// The `CampaignFinished` record.
    pub finished: TraceRecord,
}

/// One (benchmark, core) sweep span and its leaf events.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpan {
    /// Benchmark name.
    pub program: String,
    /// Input dataset label.
    pub dataset: String,
    /// Target core index.
    pub core: u8,
    /// Logical shard index.
    pub shard: u32,
    /// Classified runs declared by `SweepFinished`.
    pub declared_runs: u32,
    /// The `SweepStarted` record.
    pub started: TraceRecord,
    /// Every leaf record inside the sweep, in stream order.
    pub leaves: Vec<TraceRecord>,
    /// The `SweepFinished` record.
    pub finished: TraceRecord,
}

impl SweepSpan {
    /// A stable human label for the sweep, e.g. `bwaves:ref@core0`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}:{}@core{}", self.program, self.dataset, self.core)
    }

    /// The sweep's canonical identity for order-insensitive comparison.
    #[must_use]
    pub fn key(&self) -> (String, String, u8) {
        (self.program.clone(), self.dataset.clone(), self.core)
    }
}

impl CampaignSpan {
    /// Total records inside the span, delimiters included.
    #[must_use]
    pub fn records(&self) -> u64 {
        let sweep_records: u64 = self.sweeps.iter().map(|s| s.leaves.len() as u64 + 2).sum();
        2 + self.schedule.len() as u64
            + self.decisions.len() as u64
            + self.profile.len() as u64
            + sweep_records
    }
}

/// A span-nesting violation, with the 0-based record index it occurred at
/// (`None`: the stream ended with the span still open).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanError {
    /// 0-based index of the offending record; `None` at end of stream.
    pub index: Option<usize>,
    /// What was violated.
    pub message: String,
}

impl fmt::Display for SpanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.index {
            Some(index) => write!(f, "record {index}: {}", self.message),
            None => write!(f, "end of stream: {}", self.message),
        }
    }
}

impl std::error::Error for SpanError {}

/// Builder state while a campaign span is open.
struct OpenCampaign {
    span: CampaignSpan,
}

/// Reconstructs the span tree of a record stream.
///
/// # Errors
///
/// Returns a [`SpanError`] describing the first nesting violation.
pub fn reconstruct(records: &[TraceRecord]) -> Result<SpanTree, SpanError> {
    let mut tree = SpanTree {
        campaigns: Vec::new(),
        standalone: Vec::new(),
    };
    let mut campaign: Option<OpenCampaign> = None;
    let mut sweep: Option<SweepSpan> = None;

    for (index, record) in records.iter().enumerate() {
        let violation = |message: &str| SpanError {
            index: Some(index),
            message: message.to_owned(),
        };
        match &record.event {
            TraceEvent::CampaignStarted {
                chip,
                rail,
                benchmarks,
                cores,
                steps,
                iterations,
                shards,
                seed,
            } => {
                if campaign.is_some() {
                    return Err(violation("CampaignStarted inside an open campaign"));
                }
                campaign = Some(OpenCampaign {
                    span: CampaignSpan {
                        chip: chip.clone(),
                        rail: rail.clone(),
                        benchmarks: *benchmarks,
                        cores: *cores,
                        steps: *steps,
                        iterations: *iterations,
                        shards: *shards,
                        seed: *seed,
                        declared_runs: 0,
                        declared_power_cycles: 0,
                        started: record.clone(),
                        schedule: Vec::new(),
                        sweeps: Vec::new(),
                        decisions: Vec::new(),
                        profile: Vec::new(),
                        finished: record.clone(),
                    },
                });
            }
            TraceEvent::CampaignFinished { runs, power_cycles } => {
                let Some(mut open) = campaign.take() else {
                    return Err(violation("CampaignFinished without an open campaign"));
                };
                if sweep.is_some() {
                    return Err(violation("CampaignFinished inside an open sweep"));
                }
                open.span.declared_runs = *runs;
                open.span.declared_power_cycles = *power_cycles;
                open.span.finished = record.clone();
                tree.campaigns.push(open.span);
            }
            TraceEvent::ShardScheduled { .. } => match (&mut campaign, &sweep) {
                (Some(open), None) => open.span.schedule.push(record.clone()),
                _ => return Err(violation("ShardScheduled outside the campaign preamble")),
            },
            TraceEvent::SweepStarted {
                program,
                dataset,
                core,
                shard,
            } => {
                if campaign.is_none() {
                    return Err(violation("SweepStarted outside a campaign"));
                }
                if sweep.is_some() {
                    return Err(violation("SweepStarted inside an open sweep"));
                }
                sweep = Some(SweepSpan {
                    program: program.clone(),
                    dataset: dataset.clone(),
                    core: *core,
                    shard: *shard,
                    declared_runs: 0,
                    started: record.clone(),
                    leaves: Vec::new(),
                    finished: record.clone(),
                });
            }
            TraceEvent::SweepFinished { runs, .. } => {
                let Some(mut open) = sweep.take() else {
                    return Err(violation("SweepFinished without an open sweep"));
                };
                open.declared_runs = *runs;
                open.finished = record.clone();
                match &mut campaign {
                    Some(c) => c.span.sweeps.push(open),
                    // Unreachable: SweepStarted already required a campaign.
                    None => return Err(violation("SweepFinished outside a campaign")),
                }
            }
            TraceEvent::GoldenCaptured { .. }
            | TraceEvent::VoltageStepped { .. }
            | TraceEvent::RailSet { .. }
            | TraceEvent::WatchdogPowerCycle { .. }
            | TraceEvent::CacheErrorReported { .. }
            | TraceEvent::RunCompleted { .. }
            | TraceEvent::SearchStep { .. }
            | TraceEvent::CacheLookup { .. }
            | TraceEvent::SearchConcluded { .. }
            | TraceEvent::EarlyStop { .. }
            | TraceEvent::ProfileSample { .. } => match &mut sweep {
                Some(open) => open.leaves.push(record.clone()),
                None => return Err(violation("sweep-scoped event outside a sweep")),
            },
            TraceEvent::ProfilePhase { .. } => match (&mut campaign, &sweep) {
                (Some(open), None) => open.span.profile.push(record.clone()),
                _ => return Err(violation("ProfilePhase outside the campaign epilogue")),
            },
            TraceEvent::VoltageDecision { .. } => match (&mut campaign, &mut sweep) {
                (_, Some(open)) => open.leaves.push(record.clone()),
                (Some(c), None) => c.span.decisions.push(record.clone()),
                (None, None) => tree.standalone.push(record.clone()),
            },
        }
    }
    if sweep.is_some() {
        return Err(SpanError {
            index: None,
            message: "stream ended inside an open sweep".to_owned(),
        });
    }
    if campaign.is_some() {
        return Err(SpanError {
            index: None,
            message: "stream ended inside an open campaign".to_owned(),
        });
    }
    Ok(tree)
}

/// Renders the span path enclosing record `index` of `records`, e.g.
/// `campaign TTT#0/pmd / sweep bwaves:ref@core0 / RunCompleted` — a
/// best-effort pinpoint that works even on streams whose tail is invalid.
#[must_use]
pub fn span_path_at(records: &[TraceRecord], index: usize) -> String {
    let mut campaign: Option<String> = None;
    let mut sweep: Option<String> = None;
    let upto = index.min(records.len().saturating_sub(1));
    for record in records.iter().take(upto + 1) {
        match &record.event {
            TraceEvent::CampaignStarted { chip, rail, .. } => {
                campaign = Some(format!("{chip}/{rail}"));
                sweep = None;
            }
            TraceEvent::CampaignFinished { .. } => {
                campaign = None;
                sweep = None;
            }
            TraceEvent::SweepStarted {
                program,
                dataset,
                core,
                ..
            } => sweep = Some(format!("{program}:{dataset}@core{core}")),
            TraceEvent::SweepFinished { .. } => sweep = None,
            _ => {}
        }
    }
    let mut path = String::new();
    if let Some(c) = campaign {
        path.push_str(&format!("campaign {c}"));
    }
    if let Some(s) = sweep {
        if !path.is_empty() {
            path.push_str(" / ");
        }
        path.push_str(&format!("sweep {s}"));
    }
    let leaf = records
        .get(index)
        .map_or("end of stream".to_owned(), |r| r.event.name().to_owned());
    if path.is_empty() {
        leaf
    } else {
        format!("{path} / {leaf}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::StreamFinalizer;

    fn seal(events: Vec<TraceEvent>) -> Vec<TraceRecord> {
        let mut fin = StreamFinalizer::new();
        events.into_iter().map(|e| fin.seal(e)).collect()
    }

    fn campaign_started() -> TraceEvent {
        TraceEvent::CampaignStarted {
            chip: "TTT#0".into(),
            rail: "pmd".into(),
            benchmarks: 1,
            cores: 1,
            steps: 2,
            iterations: 1,
            shards: 1,
            seed: 9,
        }
    }

    fn sweep_started() -> TraceEvent {
        TraceEvent::SweepStarted {
            program: "namd".into(),
            dataset: "ref".into(),
            core: 4,
            shard: 0,
        }
    }

    fn run() -> TraceEvent {
        TraceEvent::RunCompleted {
            program: "namd".into(),
            dataset: "ref".into(),
            core: 4,
            mv: 890,
            iteration: 0,
            effects: "NO".into(),
            severity: 0.0,
            runtime_s: 0.125,
            energy_j: 1e-2,
            corrected_errors: 0,
            uncorrected_errors: 0,
        }
    }

    fn full_stream() -> Vec<TraceRecord> {
        seal(vec![
            campaign_started(),
            TraceEvent::ShardScheduled { shard: 0, items: 2 },
            sweep_started(),
            run(),
            run(),
            TraceEvent::SweepFinished {
                program: "namd".into(),
                dataset: "ref".into(),
                core: 4,
                runs: 2,
            },
            TraceEvent::CampaignFinished {
                runs: 2,
                power_cycles: 0,
            },
        ])
    }

    #[test]
    fn reconstructs_headers_and_leaves() {
        let tree = reconstruct(&full_stream()).expect("valid stream");
        assert_eq!(tree.campaigns.len(), 1);
        assert!(tree.standalone.is_empty());
        let c = &tree.campaigns[0];
        assert_eq!((c.chip.as_str(), c.rail.as_str()), ("TTT#0", "pmd"));
        assert_eq!(c.seed, 9);
        assert_eq!(c.declared_runs, 2);
        assert_eq!(c.schedule.len(), 1);
        assert_eq!(c.sweeps.len(), 1);
        assert_eq!(c.records(), 7);
        let s = &c.sweeps[0];
        assert_eq!(s.label(), "namd:ref@core4");
        assert_eq!(s.leaves.len(), 2);
        assert_eq!(s.declared_runs, 2);
    }

    #[test]
    fn rejects_unbalanced_spans_with_indices() {
        let records = seal(vec![campaign_started(), run()]);
        let err = reconstruct(&records).expect_err("leaf outside sweep");
        assert_eq!(err.index, Some(1));
        assert!(err.to_string().contains("outside a sweep"), "{err}");

        let records = seal(vec![campaign_started(), sweep_started()]);
        let err = reconstruct(&records).expect_err("stream ends inside sweep");
        assert_eq!(err.index, None);
        assert!(err.to_string().contains("open sweep"), "{err}");
    }

    #[test]
    fn standalone_decisions_live_outside_campaigns() {
        let records = seal(vec![TraceEvent::VoltageDecision {
            voltage_mv: 890,
            guardband_steps: 1,
            relative_power: 0.85,
            relative_performance: 1.0,
            energy_savings: 0.15,
        }]);
        let tree = reconstruct(&records).expect("valid");
        assert!(tree.campaigns.is_empty());
        assert_eq!(tree.standalone.len(), 1);
    }

    #[test]
    fn span_path_names_the_enclosing_spans() {
        let records = full_stream();
        assert_eq!(
            span_path_at(&records, 3),
            "campaign TTT#0/pmd / sweep namd:ref@core4 / RunCompleted"
        );
        assert_eq!(
            span_path_at(&records, 0),
            "campaign TTT#0/pmd / CampaignStarted"
        );
        assert_eq!(span_path_at(&records, 6), "CampaignFinished");
        assert_eq!(span_path_at(&[], 0), "end of stream");
    }
}
