//! The campaign profiling plane, folded into hotspot reports and a
//! work-accounting differ.
//!
//! A profiled campaign attributes every unit of simulator work — kernel
//! ops, fault samples, SRAM/ECC events, cache probes, watchdog
//! recoveries — to a pipeline phase, and emits the tallies as
//! `ProfileSample` (per sweep) and `ProfilePhase` (campaign rollup)
//! records. This module folds those records into a [`ProfileReport`]:
//! which phases and which kernels dominate the campaign's work, what a
//! sweep's probing costs, and how step work splits between the exhaustive
//! grid and an adaptive search. Like every scope artifact the report is a
//! pure function of the record sequence, so two reports of the same
//! stream render byte-identically.
//!
//! [`diff`] compares two reports of the *same intended experiment* and
//! classifies the divergence for CI gating: identical work accounting,
//! work drift within the same phase structure, or a phase-structure
//! divergence (work appearing in a phase that should be idle).

use margins_trace::json::{self, Value};
use margins_trace::span::SpanTree;
use margins_trace::TraceEvent;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The pipeline phases in canonical stream order.
const PHASE_ORDER: [&str; 5] = [
    "board_init",
    "golden_run",
    "probe",
    "search_step",
    "cache_lookup",
];

/// Rank of a phase for deterministic ordering: canonical phases first in
/// stream order, unknown phases after, alphabetically.
fn phase_rank(phase: &str) -> usize {
    PHASE_ORDER
        .iter()
        .position(|p| *p == phase)
        .unwrap_or(PHASE_ORDER.len())
}

/// Work units attributed to one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseWork {
    /// Ops retired by executed kernels.
    pub ops: u64,
    /// Poisson fault samples drawn.
    pub fault_samples: u64,
    /// SRAM/ECC events observed.
    pub sram_events: u64,
    /// Campaign-cache probes issued.
    pub cache_probes: u64,
    /// Watchdog recoveries performed.
    pub recoveries: u64,
}

impl PhaseWork {
    /// Total work units, saturating.
    #[must_use]
    fn total(&self) -> u64 {
        self.ops
            .saturating_add(self.fault_samples)
            .saturating_add(self.sram_events)
            .saturating_add(self.cache_probes)
            .saturating_add(self.recoveries)
    }

    fn accumulate(&mut self, other: &PhaseWork) {
        self.ops = self.ops.saturating_add(other.ops);
        self.fault_samples = self.fault_samples.saturating_add(other.fault_samples);
        self.sram_events = self.sram_events.saturating_add(other.sram_events);
        self.cache_probes = self.cache_probes.saturating_add(other.cache_probes);
        self.recoveries = self.recoveries.saturating_add(other.recoveries);
    }
}

/// One sweep's per-phase work, from its `ProfileSample` leaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepProfile {
    /// Benchmark name.
    pub program: String,
    /// Dataset label.
    pub dataset: String,
    /// Target core index.
    pub core: u8,
    /// Phase name → work.
    pub phases: BTreeMap<String, PhaseWork>,
}

impl SweepProfile {
    /// A stable human label, e.g. `bwaves:ref@core0`.
    #[must_use]
    fn label(&self) -> String {
        format!("{}:{}@core{}", self.program, self.dataset, self.core)
    }

    /// Total work units over all phases, saturating.
    #[must_use]
    fn total(&self) -> u64 {
        self.phases
            .values()
            .fold(0u64, |acc, w| acc.saturating_add(w.total()))
    }
}

/// A stream's profiling plane, folded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileReport {
    /// Campaign-level phase rollups (phase name → work), summed over
    /// campaigns when the stream holds several.
    pub phases: BTreeMap<String, PhaseWork>,
    /// Sweeps declared by the rollup records.
    pub sweeps_declared: u64,
    /// Per-sweep profiles, in stream order.
    pub sweeps: Vec<SweepProfile>,
}

impl ProfileReport {
    /// Whether the stream carried any profile records at all.
    #[must_use]
    fn is_empty(&self) -> bool {
        self.phases.is_empty() && self.sweeps.is_empty()
    }

    /// Total work units over all phases, saturating.
    #[must_use]
    fn grand_total(&self) -> u64 {
        self.phases
            .values()
            .fold(0u64, |acc, w| acc.saturating_add(w.total()))
    }

    /// A phase's share of the total work, in [0, 1].
    #[must_use]
    fn phase_share(&self, phase: &str) -> f64 {
        let total = self.grand_total();
        if total == 0 {
            return 0.0;
        }
        self.phases.get(phase).map_or(0.0, |w| w.total() as f64) / total as f64
    }

    /// Phase names sorted hottest-first (canonical order breaks ties).
    #[must_use]
    fn hottest_phases(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.phases.keys().map(String::as_str).collect();
        names.sort_by_key(|p| {
            let total = self.phases[*p].total();
            (std::cmp::Reverse(total), phase_rank(p), *p)
        });
        names
    }

    /// Sweep indices sorted hottest-first (stream order breaks ties).
    #[must_use]
    fn hottest_sweeps(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.sweeps.len()).collect();
        order.sort_by_key(|i| (std::cmp::Reverse(self.sweeps[*i].total()), *i));
        order
    }

    /// Voltage-step work: `(probe, search_step)` totals.
    #[must_use]
    fn step_work(&self) -> (u64, u64) {
        let of = |phase: &str| self.phases.get(phase).map_or(0, PhaseWork::total);
        (of("probe"), of("search_step"))
    }

    /// Mean step-probing work per sweep; `None` without declared sweeps.
    #[must_use]
    fn probe_cost_per_sweep(&self) -> Option<f64> {
        if self.sweeps_declared == 0 {
            return None;
        }
        let (probe, search) = self.step_work();
        Some(probe.saturating_add(search) as f64 / self.sweeps_declared as f64)
    }
}

/// Folds a reconstructed span tree's profile records into a report.
#[must_use]
pub fn report(tree: &SpanTree) -> ProfileReport {
    let mut out = ProfileReport::default();
    for campaign in &tree.campaigns {
        let mut declared: Option<u64> = None;
        for record in &campaign.profile {
            if let TraceEvent::ProfilePhase {
                phase,
                sweeps,
                ops,
                fault_samples,
                sram_events,
                cache_probes,
                recoveries,
            } = &record.event
            {
                declared.get_or_insert(*sweeps);
                out.phases
                    .entry(phase.clone())
                    .or_default()
                    .accumulate(&PhaseWork {
                        ops: *ops,
                        fault_samples: *fault_samples,
                        sram_events: *sram_events,
                        cache_probes: *cache_probes,
                        recoveries: *recoveries,
                    });
            }
        }
        out.sweeps_declared += declared.unwrap_or(0);
        for sweep in &campaign.sweeps {
            let mut profile: Option<SweepProfile> = None;
            for leaf in &sweep.leaves {
                if let TraceEvent::ProfileSample {
                    program,
                    dataset,
                    core,
                    phase,
                    ops,
                    fault_samples,
                    sram_events,
                    cache_probes,
                    recoveries,
                } = &leaf.event
                {
                    let entry = profile.get_or_insert_with(|| SweepProfile {
                        program: program.clone(),
                        dataset: dataset.clone(),
                        core: *core,
                        phases: BTreeMap::new(),
                    });
                    entry
                        .phases
                        .entry(phase.clone())
                        .or_default()
                        .accumulate(&PhaseWork {
                            ops: *ops,
                            fault_samples: *fault_samples,
                            sram_events: *sram_events,
                            cache_probes: *cache_probes,
                            recoveries: *recoveries,
                        });
                }
            }
            if let Some(profile) = profile {
                out.sweeps.push(profile);
            }
        }
    }
    out
}

/// Renders a profile report as markdown.
#[must_use]
pub fn markdown(report: &ProfileReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# trace-scope profile");
    let _ = writeln!(out);
    if report.is_empty() {
        let _ = writeln!(
            out,
            "No profile records in the stream — rerun the campaign with \
             profiling enabled (`voltmargin characterize --profile`)."
        );
        return out;
    }
    let total = report.grand_total();
    let _ = writeln!(
        out,
        "{} work unit(s) over {} sweep(s).",
        total, report.sweeps_declared
    );

    let _ = writeln!(out);
    let _ = writeln!(out, "## Phase hotspots");
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "| phase | ops | fault samples | sram events | cache probes | recoveries | total | share |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|");
    for phase in report.hottest_phases() {
        let w = &report.phases[phase];
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {:.2}% |",
            phase,
            w.ops,
            w.fault_samples,
            w.sram_events,
            w.cache_probes,
            w.recoveries,
            w.total(),
            report.phase_share(phase) * 100.0
        );
    }

    let (probe, search) = report.step_work();
    let _ = writeln!(out);
    if let Some(cost) = report.probe_cost_per_sweep() {
        let _ = writeln!(
            out,
            "- per-sweep probe cost: {} work unit(s)/sweep",
            json::fmt_f64(cost)
        );
    }
    if search > 0 {
        let _ = writeln!(
            out,
            "- step work attribution: {} unit(s) under adaptive search, {} under the exhaustive grid",
            search, probe
        );
    } else {
        let _ = writeln!(
            out,
            "- step work attribution: all {} unit(s) under the exhaustive grid",
            probe
        );
    }

    if !report.sweeps.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "## Kernel hotspots");
        let _ = writeln!(out);
        let _ = writeln!(out, "| sweep | ops | fault samples | total | share |");
        let _ = writeln!(out, "|---|---|---|---|---|");
        for idx in report.hottest_sweeps() {
            let s = &report.sweeps[idx];
            let ops: u64 = s.phases.values().fold(0, |a, w| a.saturating_add(w.ops));
            let faults: u64 = s
                .phases
                .values()
                .fold(0, |a, w| a.saturating_add(w.fault_samples));
            let share = if total > 0 {
                s.total() as f64 / total as f64
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {:.2}% |",
                s.label(),
                ops,
                faults,
                s.total(),
                share * 100.0
            );
        }
    }
    out
}

fn work_value(w: &PhaseWork) -> Value {
    let mut map = BTreeMap::new();
    map.insert("ops".to_owned(), Value::from_u64(w.ops));
    map.insert("fault_samples".to_owned(), Value::from_u64(w.fault_samples));
    map.insert("sram_events".to_owned(), Value::from_u64(w.sram_events));
    map.insert("cache_probes".to_owned(), Value::from_u64(w.cache_probes));
    map.insert("recoveries".to_owned(), Value::from_u64(w.recoveries));
    map.insert("total".to_owned(), Value::from_u64(w.total()));
    Value::Object(map)
}

/// Renders a profile report as a JSON document (sorted keys, one
/// trailing newline).
#[must_use]
pub fn json(report: &ProfileReport) -> String {
    let mut root = BTreeMap::new();
    root.insert(
        "grand_total".to_owned(),
        Value::from_u64(report.grand_total()),
    );
    root.insert(
        "sweeps_declared".to_owned(),
        Value::from_u64(report.sweeps_declared),
    );
    root.insert(
        "phases".to_owned(),
        Value::Object(
            report
                .phases
                .iter()
                .map(|(phase, w)| (phase.clone(), work_value(w)))
                .collect(),
        ),
    );
    root.insert(
        "sweeps".to_owned(),
        Value::Array(
            report
                .sweeps
                .iter()
                .map(|s| {
                    let mut map = BTreeMap::new();
                    map.insert("program".to_owned(), Value::from_str_val(&s.program));
                    map.insert("dataset".to_owned(), Value::from_str_val(&s.dataset));
                    map.insert("core".to_owned(), Value::from_u64(s.core.into()));
                    map.insert(
                        "phases".to_owned(),
                        Value::Object(
                            s.phases
                                .iter()
                                .map(|(phase, w)| (phase.clone(), work_value(w)))
                                .collect(),
                        ),
                    );
                    map.insert("total".to_owned(), Value::from_u64(s.total()));
                    Value::Object(map)
                })
                .collect(),
        ),
    );
    let mut out = json::render(&Value::Object(root));
    out.push('\n');
    out
}

/// How two profile reports of the same intended experiment diverge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileDivergence {
    /// Identical work accounting, phase by phase and sweep by sweep.
    Identical,
    /// The same phases are active, but a phase's work tallies differ.
    WorkDrift {
        /// Where the drift was observed: `campaign` or a sweep label.
        scope: String,
        /// The first diverging phase, in canonical order.
        phase: String,
        /// Its total work in the first stream.
        a_total: u64,
        /// Its total work in the second stream.
        b_total: u64,
    },
    /// The phase structure itself differs: a phase is active in only one
    /// stream, or the sweep sets disagree.
    PhaseDivergence {
        /// What diverged.
        detail: String,
    },
}

impl ProfileDivergence {
    /// CI exit code: 0 identical, 4 work drift, 5 phase divergence.
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        match self {
            ProfileDivergence::Identical => 0,
            ProfileDivergence::WorkDrift { .. } => 4,
            ProfileDivergence::PhaseDivergence { .. } => 5,
        }
    }

    /// One-line human description.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            ProfileDivergence::Identical => "identical work accounting".to_owned(),
            ProfileDivergence::WorkDrift {
                scope,
                phase,
                a_total,
                b_total,
            } => format!(
                "work drift in phase `{phase}` ({scope}): {a_total} vs {b_total} work unit(s)"
            ),
            ProfileDivergence::PhaseDivergence { detail } => {
                format!("phase divergence: {detail}")
            }
        }
    }
}

/// Names in `a` or `b` whose work totals are nonzero, canonically sorted.
fn active_phases(phases: &BTreeMap<String, PhaseWork>) -> Vec<&str> {
    let mut names: Vec<&str> = phases
        .iter()
        .filter(|(_, w)| w.total() > 0)
        .map(|(p, _)| p.as_str())
        .collect();
    names.sort_by_key(|p| (phase_rank(p), *p));
    names
}

/// Phase names of either map, in canonical order.
fn all_phases<'a>(
    a: &'a BTreeMap<String, PhaseWork>,
    b: &'a BTreeMap<String, PhaseWork>,
) -> Vec<&'a str> {
    let mut names: Vec<&str> = a.keys().chain(b.keys()).map(String::as_str).collect();
    names.sort_by_key(|p| (phase_rank(p), *p));
    names.dedup();
    names
}

/// Classifies the divergence between two profile reports.
///
/// Phase structure is compared first: a phase doing work in one stream
/// while idle in the other (e.g. step work flipping between `probe` and
/// `search_step`), or disagreeing sweep sets, is a *phase divergence* —
/// the experiments are not the same shape. With the structure intact,
/// any differing tally is *work drift*, named after the first diverging
/// phase in canonical order.
#[must_use]
pub fn diff(a: &ProfileReport, b: &ProfileReport) -> ProfileDivergence {
    if active_phases(&a.phases) != active_phases(&b.phases) {
        let all = all_phases(&a.phases, &b.phases);
        let culprit = all
            .iter()
            .find(|p| {
                let at = a.phases.get(**p).map_or(0, PhaseWork::total);
                let bt = b.phases.get(**p).map_or(0, PhaseWork::total);
                (at > 0) != (bt > 0)
            })
            .copied()
            .unwrap_or("?");
        return ProfileDivergence::PhaseDivergence {
            detail: format!("phase `{culprit}` is active in only one stream"),
        };
    }
    let a_sweeps: Vec<String> = a.sweeps.iter().map(SweepProfile::label).collect();
    let b_sweeps: Vec<String> = b.sweeps.iter().map(SweepProfile::label).collect();
    if a_sweeps != b_sweeps {
        return ProfileDivergence::PhaseDivergence {
            detail: format!(
                "sweep sets differ ({} vs {} profiled sweep(s))",
                a_sweeps.len(),
                b_sweeps.len()
            ),
        };
    }

    for phase in all_phases(&a.phases, &b.phases) {
        let wa = a.phases.get(phase).copied().unwrap_or_default();
        let wb = b.phases.get(phase).copied().unwrap_or_default();
        if wa != wb {
            return ProfileDivergence::WorkDrift {
                scope: "campaign".to_owned(),
                phase: phase.to_owned(),
                a_total: wa.total(),
                b_total: wb.total(),
            };
        }
    }
    for (sa, sb) in a.sweeps.iter().zip(&b.sweeps) {
        for phase in all_phases(&sa.phases, &sb.phases) {
            let wa = sa.phases.get(phase).copied().unwrap_or_default();
            let wb = sb.phases.get(phase).copied().unwrap_or_default();
            if wa != wb {
                return ProfileDivergence::WorkDrift {
                    scope: sa.label(),
                    phase: phase.to_owned(),
                    a_total: wa.total(),
                    b_total: wb.total(),
                };
            }
        }
    }
    if a.sweeps_declared != b.sweeps_declared {
        return ProfileDivergence::PhaseDivergence {
            detail: format!(
                "declared sweep counts differ ({} vs {})",
                a.sweeps_declared, b.sweeps_declared
            ),
        };
    }
    ProfileDivergence::Identical
}

#[cfg(test)]
mod tests {
    use super::*;
    use margins_trace::{StreamFinalizer, TraceRecord};

    fn sample(phase: &str, ops: u64, extras: (u64, u64, u64, u64)) -> TraceEvent {
        TraceEvent::ProfileSample {
            program: "bwaves".into(),
            dataset: "ref".into(),
            core: 0,
            phase: phase.into(),
            ops,
            fault_samples: extras.0,
            sram_events: extras.1,
            cache_probes: extras.2,
            recoveries: extras.3,
        }
    }

    fn rollup(phase: &str, ops: u64, extras: (u64, u64, u64, u64)) -> TraceEvent {
        TraceEvent::ProfilePhase {
            phase: phase.into(),
            sweeps: 1,
            ops,
            fault_samples: extras.0,
            sram_events: extras.1,
            cache_probes: extras.2,
            recoveries: extras.3,
        }
    }

    fn profiled_stream(probe_ops: u64, adaptive: bool) -> Vec<TraceRecord> {
        let step_phase = if adaptive { "search_step" } else { "probe" };
        let mut fin = StreamFinalizer::new();
        vec![
            TraceEvent::CampaignStarted {
                chip: "TTT#0".into(),
                rail: "pmd".into(),
                benchmarks: 1,
                cores: 1,
                steps: 2,
                iterations: 1,
                shards: 1,
                seed: 7,
            },
            TraceEvent::SweepStarted {
                program: "bwaves".into(),
                dataset: "ref".into(),
                core: 0,
                shard: 0,
            },
            sample("board_init", 0, (0, 0, 0, 1)),
            sample("golden_run", 100, (10, 0, 0, 0)),
            sample(step_phase, probe_ops, (40, 2, 0, 0)),
            sample("cache_lookup", 0, (0, 0, 3, 0)),
            TraceEvent::SweepFinished {
                program: "bwaves".into(),
                dataset: "ref".into(),
                core: 0,
                runs: 2,
            },
            rollup("board_init", 0, (0, 0, 0, 1)),
            rollup("golden_run", 100, (10, 0, 0, 0)),
            rollup(step_phase, probe_ops, (40, 2, 0, 0)),
            rollup("cache_lookup", 0, (0, 0, 3, 0)),
            TraceEvent::CampaignFinished {
                runs: 2,
                power_cycles: 1,
            },
        ]
        .into_iter()
        .map(|e| fin.seal(e))
        .collect()
    }

    fn report_of(records: &[TraceRecord]) -> ProfileReport {
        report(&margins_trace::reconstruct(records).expect("valid stream"))
    }

    #[test]
    fn report_folds_rollups_and_sweep_samples() {
        let r = report_of(&profiled_stream(400, false));
        assert!(!r.is_empty());
        assert_eq!(r.sweeps_declared, 1);
        assert_eq!(r.grand_total(), 1 + 110 + 442 + 3);
        assert_eq!(r.phases["probe"].ops, 400);
        assert_eq!(r.phases["cache_lookup"].cache_probes, 3);
        assert_eq!(r.hottest_phases()[0], "probe");
        assert_eq!(r.sweeps.len(), 1);
        assert_eq!(r.sweeps[0].label(), "bwaves:ref@core0");
        assert_eq!(r.sweeps[0].total(), r.grand_total());
        assert_eq!(r.step_work(), (442, 0));
        let cost = r.probe_cost_per_sweep().expect("declared sweeps");
        assert!((cost - 442.0).abs() < 1e-12);
    }

    #[test]
    fn unprofiled_streams_fold_to_an_empty_report() {
        let mut fin = StreamFinalizer::new();
        let records: Vec<TraceRecord> = vec![
            TraceEvent::CampaignStarted {
                chip: "TTT#0".into(),
                rail: "pmd".into(),
                benchmarks: 1,
                cores: 1,
                steps: 1,
                iterations: 1,
                shards: 1,
                seed: 7,
            },
            TraceEvent::CampaignFinished {
                runs: 0,
                power_cycles: 0,
            },
        ]
        .into_iter()
        .map(|e| fin.seal(e))
        .collect();
        let r = report_of(&records);
        assert!(r.is_empty());
        assert_eq!(r.probe_cost_per_sweep(), None);
        assert!(markdown(&r).contains("No profile records"));
    }

    #[test]
    fn renders_are_deterministic_and_name_the_hotspots() {
        let r = report_of(&profiled_stream(400, false));
        let md = markdown(&r);
        assert_eq!(md, markdown(&r));
        assert!(md.contains("## Phase hotspots"), "{md}");
        assert!(md.contains("| probe | 400 | 40 | 2 |"), "{md}");
        assert!(md.contains("## Kernel hotspots"), "{md}");
        assert!(md.contains("| bwaves:ref@core0 |"), "{md}");
        assert!(
            md.contains("all 442 unit(s) under the exhaustive grid"),
            "{md}"
        );

        let text = json(&r);
        assert!(text.ends_with('\n'));
        let value = margins_trace::json::parse(text.trim_end()).expect("valid JSON");
        let root = value.as_object().expect("object");
        assert_eq!(
            root.get("grand_total").and_then(Value::as_number),
            Some("556")
        );
        let phases = root.get("phases").and_then(Value::as_object).expect("map");
        let probe = phases.get("probe").and_then(Value::as_object).expect("map");
        assert_eq!(probe.get("total").and_then(Value::as_number), Some("442"));
    }

    #[test]
    fn adaptive_streams_attribute_step_work_to_search() {
        let r = report_of(&profiled_stream(400, true));
        assert_eq!(r.step_work(), (0, 442));
        let md = markdown(&r);
        assert!(md.contains("442 unit(s) under adaptive search"), "{md}");
    }

    #[test]
    fn diff_classifies_identical_drift_and_divergence() {
        let a = report_of(&profiled_stream(400, false));

        let identical = diff(&a, &report_of(&profiled_stream(400, false)));
        assert_eq!(identical, ProfileDivergence::Identical);
        assert_eq!(identical.exit_code(), 0);

        let drift = diff(&a, &report_of(&profiled_stream(500, false)));
        match &drift {
            ProfileDivergence::WorkDrift {
                scope,
                phase,
                a_total,
                b_total,
            } => {
                assert_eq!(scope, "campaign");
                assert_eq!(phase, "probe");
                assert_eq!((*a_total, *b_total), (442, 542));
            }
            other => panic!("expected work drift, got {other:?}"),
        }
        assert_eq!(drift.exit_code(), 4);
        assert!(drift.describe().contains("phase `probe`"), "{drift:?}");

        let divergence = diff(&a, &report_of(&profiled_stream(400, true)));
        match &divergence {
            ProfileDivergence::PhaseDivergence { detail } => {
                assert!(detail.contains('`'), "{detail}");
            }
            other => panic!("expected phase divergence, got {other:?}"),
        }
        assert_eq!(divergence.exit_code(), 5);
    }
}
