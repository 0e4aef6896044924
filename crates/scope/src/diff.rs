//! Semantic trace diffing: classify how two streams of the same intended
//! experiment diverge.
//!
//! The classifier works outward from strict equality:
//!
//! 1. byte-equal record sequences → [`DivergenceClass::Identical`];
//! 2. equal after stripping the envelope and every modelled metric
//!    (severity, runtimes, energies, governor projections) →
//!    [`DivergenceClass::MetricsDrift`] — same schedule and outcomes,
//!    different numbers;
//! 3. equal after canonicalizing the span trees (sweeps sorted into
//!    grid order, scheduling identity erased) →
//!    [`DivergenceClass::ScheduleOnly`] — same work and same results,
//!    merely reordered;
//! 4. anything else → [`DivergenceClass::OutcomeDivergence`], with the
//!    first diverging record and its enclosing span path pinpointed.
//!
//! Each class maps to a distinct process exit code so CI can gate on
//! exactly the regressions it cares about.

use margins_trace::span::{reconstruct, SpanTree};
use margins_trace::span_path_at;
use margins_trace::{TraceEvent, TraceRecord};

/// How two streams relate, ordered from benign to severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DivergenceClass {
    /// Byte-identical record sequences.
    Identical,
    /// Same runs and same metrics, only the interleaving differs.
    ScheduleOnly,
    /// Same schedule and outcomes, but a modelled metric moved.
    MetricsDrift,
    /// The streams describe different experimental outcomes.
    OutcomeDivergence,
}

impl DivergenceClass {
    /// The process exit code `trace-scope diff` reports for this class.
    /// (1 and 2 are reserved for read errors and usage errors.)
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self {
            DivergenceClass::Identical => 0,
            DivergenceClass::ScheduleOnly => 4,
            DivergenceClass::MetricsDrift => 5,
            DivergenceClass::OutcomeDivergence => 6,
        }
    }

    /// A stable lowercase name for reports.
    #[must_use]
    fn name(&self) -> &'static str {
        match self {
            DivergenceClass::Identical => "identical",
            DivergenceClass::ScheduleOnly => "schedule-only",
            DivergenceClass::MetricsDrift => "metrics-drift",
            DivergenceClass::OutcomeDivergence => "outcome-divergence",
        }
    }
}

/// The first record where the two streams disagree.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// 0-based record index of the disagreement.
    pub index: usize,
    /// The enclosing span path at that index, e.g.
    /// `campaign TTT#0/pmd / sweep namd:ref@core4 / RunCompleted`.
    pub span_path: String,
    /// The left stream's record at the index, JSON-rendered (`None` when
    /// the left stream ended first).
    pub left: Option<String>,
    /// The right stream's record at the index, JSON-rendered (`None`
    /// when the right stream ended first).
    pub right: Option<String>,
}

/// The outcome of diffing two streams.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// The divergence class.
    pub class: DivergenceClass,
    /// One-line human explanation.
    pub detail: String,
    /// The pinpointed first divergence, for the classes that have one.
    pub first_divergence: Option<Divergence>,
}

impl DiffReport {
    /// Renders the report as deterministic plain text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!("trace-scope diff: {}\n{}\n", self.class.name(), self.detail);
        if let Some(d) = &self.first_divergence {
            out.push_str(&format!(
                "first divergence at record {} ({})\n  left:  {}\n  right: {}\n",
                d.index,
                d.span_path,
                d.left.as_deref().unwrap_or("<stream ended>"),
                d.right.as_deref().unwrap_or("<stream ended>"),
            ));
        }
        out
    }
}

/// Diffs two record streams of the same intended experiment.
#[must_use]
pub fn diff(a: &[TraceRecord], b: &[TraceRecord]) -> DiffReport {
    if a == b {
        return DiffReport {
            class: DivergenceClass::Identical,
            detail: format!("streams are byte-identical ({} records)", a.len()),
            first_divergence: None,
        };
    }

    let a_stripped: Vec<TraceRecord> = a.iter().map(strip_metrics).collect();
    let b_stripped: Vec<TraceRecord> = b.iter().map(strip_metrics).collect();
    if a_stripped == b_stripped {
        let index = first_difference(a, b);
        return DiffReport {
            class: DivergenceClass::MetricsDrift,
            detail: "schedules and outcomes agree; a modelled metric drifted".to_owned(),
            first_divergence: Some(divergence_at(a, b, index)),
        };
    }

    if let (Ok(ta), Ok(tb)) = (reconstruct(a), reconstruct(b)) {
        if canonicalize(&ta) == canonicalize(&tb) {
            let index = first_difference(a, b);
            return DiffReport {
                class: DivergenceClass::ScheduleOnly,
                detail: "identical work and results; only the interleaving differs".to_owned(),
                first_divergence: Some(divergence_at(a, b, index)),
            };
        }
    }

    let index = first_difference(a, b);
    DiffReport {
        class: DivergenceClass::OutcomeDivergence,
        detail: "the streams describe different experimental outcomes".to_owned(),
        first_divergence: Some(divergence_at(a, b, index)),
    }
}

/// Index of the first record where the sequences disagree (`min(len)`
/// when one is a prefix of the other).
fn first_difference(a: &[TraceRecord], b: &[TraceRecord]) -> usize {
    a.iter()
        .zip(b.iter())
        .position(|(x, y)| x != y)
        .unwrap_or_else(|| a.len().min(b.len()))
}

fn divergence_at(a: &[TraceRecord], b: &[TraceRecord], index: usize) -> Divergence {
    // Pin the span path on whichever stream still has records there; both
    // agree on the shared prefix, so either works when both do.
    let span_path = if index < a.len() {
        span_path_at(a, index)
    } else {
        span_path_at(b, index)
    };
    Divergence {
        index,
        span_path,
        left: a.get(index).map(render_record),
        right: b.get(index).map(render_record),
    }
}

fn render_record(record: &TraceRecord) -> String {
    record
        .to_json_line()
        .unwrap_or_else(|e| format!("<unencodable record: {e}>"))
}

/// Erases the envelope and every modelled metric, keeping schedule and
/// outcome identity.
fn strip_metrics(record: &TraceRecord) -> TraceRecord {
    let mut event = record.event.clone();
    match &mut event {
        TraceEvent::RunCompleted {
            severity,
            runtime_s,
            energy_j,
            ..
        } => {
            *severity = 0.0;
            *runtime_s = 0.0;
            *energy_j = 0.0;
        }
        TraceEvent::GoldenCaptured { runtime_s, .. } => *runtime_s = 0.0,
        TraceEvent::VoltageDecision {
            relative_power,
            relative_performance,
            energy_savings,
            ..
        } => {
            *relative_power = 0.0;
            *relative_performance = 0.0;
            *energy_savings = 0.0;
        }
        _ => {}
    }
    TraceRecord {
        seq: 0,
        t_model_s: 0.0,
        event,
    }
}

/// Erases the envelope and scheduling identity (shard indices), keeping
/// everything else.
fn strip_schedule(record: &TraceRecord) -> TraceRecord {
    let mut event = record.event.clone();
    match &mut event {
        TraceEvent::SweepStarted { shard, .. } => *shard = 0,
        TraceEvent::ShardScheduled { shard, .. } => *shard = 0,
        _ => {}
    }
    TraceRecord {
        seq: 0,
        t_model_s: 0.0,
        event,
    }
}

/// One campaign in scheduling-independent form: header, schedule as a
/// sorted multiset, sweeps in grid order, decisions, profile rollups and
/// close.
type CanonicalCampaign = (
    TraceRecord,
    Vec<TraceRecord>,
    Vec<(TraceRecord, Vec<TraceRecord>, TraceRecord)>,
    Vec<TraceRecord>,
    Vec<TraceRecord>,
    TraceRecord,
);

fn canonicalize(tree: &SpanTree) -> (Vec<CanonicalCampaign>, Vec<TraceRecord>) {
    let campaigns = tree
        .campaigns
        .iter()
        .map(|c| {
            let mut schedule: Vec<TraceRecord> = c.schedule.iter().map(strip_schedule).collect();
            schedule.sort_by_key(|r| format!("{:?}", r.event));
            let mut sweeps: Vec<_> = c.sweeps.iter().collect();
            sweeps.sort_by_key(|s| s.key());
            let sweeps = sweeps
                .into_iter()
                .map(|s| {
                    (
                        strip_schedule(&s.started),
                        s.leaves.iter().map(strip_schedule).collect(),
                        strip_schedule(&s.finished),
                    )
                })
                .collect();
            (
                strip_schedule(&c.started),
                schedule,
                sweeps,
                c.decisions.iter().map(strip_schedule).collect(),
                c.profile.iter().map(strip_schedule).collect(),
                strip_schedule(&c.finished),
            )
        })
        .collect();
    let standalone = tree.standalone.iter().map(strip_schedule).collect();
    (campaigns, standalone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use margins_trace::{StreamFinalizer, TraceEvent};

    fn run(core: u8, mv: u32, effects: &str, severity: f64) -> TraceEvent {
        TraceEvent::RunCompleted {
            program: "bwaves".into(),
            dataset: "ref".into(),
            core,
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

    fn sweep(core: u8, shard: u32, effects: &str, severity: f64) -> Vec<TraceEvent> {
        vec![
            TraceEvent::SweepStarted {
                program: "bwaves".into(),
                dataset: "ref".into(),
                core,
                shard,
            },
            run(core, 915, effects, severity),
            TraceEvent::SweepFinished {
                program: "bwaves".into(),
                dataset: "ref".into(),
                core,
                runs: 1,
            },
        ]
    }

    fn campaign(sweep_order: &[u8], effects: &str, severity: f64) -> Vec<TraceRecord> {
        let mut events = vec![TraceEvent::CampaignStarted {
            chip: "TTT#0".into(),
            rail: "pmd".into(),
            benchmarks: 1,
            cores: 2,
            steps: 1,
            iterations: 1,
            shards: 2,
            seed: 7,
        }];
        for shard in 0..2 {
            events.push(TraceEvent::ShardScheduled { shard, items: 1 });
        }
        for (i, &core) in sweep_order.iter().enumerate() {
            events.extend(sweep(core, i as u32, effects, severity));
        }
        events.push(TraceEvent::CampaignFinished {
            runs: sweep_order.len() as u64,
            power_cycles: 0,
        });
        let mut fin = StreamFinalizer::new();
        events.into_iter().map(|e| fin.seal(e)).collect()
    }

    #[test]
    fn identical_streams_exit_zero() {
        let a = campaign(&[0, 1], "NO", 0.0);
        let report = diff(&a, &a.clone());
        assert_eq!(report.class, DivergenceClass::Identical);
        assert_eq!(report.class.exit_code(), 0);
        assert!(report.first_divergence.is_none());
    }

    #[test]
    fn reordered_sweeps_classify_as_schedule_only() {
        let a = campaign(&[0, 1], "NO", 0.0);
        let b = campaign(&[1, 0], "NO", 0.0);
        let report = diff(&a, &b);
        assert_eq!(report.class, DivergenceClass::ScheduleOnly, "{report:?}");
        assert_eq!(report.class.exit_code(), 4);
        let d = report.first_divergence.expect("pinpointed");
        assert!(
            d.span_path.contains("campaign TTT#0/pmd"),
            "{}",
            d.span_path
        );
    }

    #[test]
    fn changed_severity_classifies_as_metrics_drift() {
        let a = campaign(&[0, 1], "SDC", 5.0);
        let b = campaign(&[0, 1], "SDC", 6.0);
        let report = diff(&a, &b);
        assert_eq!(report.class, DivergenceClass::MetricsDrift);
        assert_eq!(report.class.exit_code(), 5);
        let d = report.first_divergence.expect("pinpointed");
        assert!(d.span_path.contains("RunCompleted"), "{}", d.span_path);
    }

    #[test]
    fn changed_outcome_pinpoints_the_first_diverging_span() {
        let a = campaign(&[0, 1], "NO", 0.0);
        let b = campaign(&[0, 1], "SC", 23.0);
        let report = diff(&a, &b);
        assert_eq!(report.class, DivergenceClass::OutcomeDivergence);
        assert_eq!(report.class.exit_code(), 6);
        let d = report.first_divergence.as_ref().expect("pinpointed");
        assert_eq!(
            d.span_path,
            "campaign TTT#0/pmd / sweep bwaves:ref@core0 / RunCompleted"
        );
        assert!(d.left.is_some() && d.right.is_some());
        let text = report.render();
        assert!(text.contains("outcome-divergence"), "{text}");
        assert!(text.contains("first divergence at record"), "{text}");
    }

    #[test]
    fn truncated_stream_diverges_at_the_cut() {
        let a = campaign(&[0, 1], "NO", 0.0);
        let b = a[..a.len() - 1].to_vec();
        let report = diff(&a, &b);
        assert_eq!(report.class, DivergenceClass::OutcomeDivergence);
        let d = report.first_divergence.as_ref().expect("pinpointed");
        assert_eq!(d.index, a.len() - 1);
        assert!(d.left.is_some());
        assert!(d.right.is_none());
        assert!(report.render().contains("<stream ended>"));
    }
}
