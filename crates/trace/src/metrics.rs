//! The deterministic metrics registry.
//!
//! A [`MetricsRegistry`] is itself a [`Sink`]: fed the finalized record
//! stream, it maintains ordered counters and fixed-bucket histograms whose
//! contents depend only on the stream — two executions of the same campaign
//! produce identical registries, and the registry totals reconcile exactly
//! with the classified-run CSV (per-effect counts, watchdog power cycles,
//! step counts).

use crate::event::{TraceEvent, TraceRecord};
use crate::sink::Sink;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A fixed-bucket histogram: `bounds` are the inclusive upper edges of the
/// first `bounds.len()` buckets; one overflow bucket catches the rest.
#[derive(Debug, Clone, PartialEq)]
struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
}

impl Histogram {
    /// A histogram over the given ascending upper edges.
    #[must_use]
    fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
        }
    }

    /// Records one observation.
    fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
    }

    /// Total observations.
    #[must_use]
    fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of all observations.
    #[must_use]
    fn sum(&self) -> f64 {
        self.sum
    }

    /// Per-bucket counts (last bucket is the overflow bucket).
    #[must_use]
    fn buckets(&self) -> &[u64] {
        &self.counts
    }

    /// The bucket upper edges.
    #[must_use]
    fn bounds(&self) -> &[f64] {
        &self.bounds
    }
}

/// Ordered counters and histograms derived from the event stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    /// Severity contributions of the runs at the current voltage step,
    /// flushed into `step_severity` on each step/sweep boundary.
    pending_step: Vec<f64>,
}

/// Upper edges for modelled per-run runtimes, seconds.
const RUNTIME_BOUNDS: [f64; 6] = [1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0];
/// Upper edges for severity values (between the Table 4 weight classes).
const SEVERITY_BOUNDS: [f64; 6] = [0.0, 1.5, 3.5, 7.5, 15.5, 23.5];

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Reads a counter (0 when never incremented).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, in name order.
    #[must_use]
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// Adds `by` to a named counter, saturating at `u64::MAX` — a
    /// saturated counter stays comparable instead of wrapping to a small
    /// value and masquerading as a quiet campaign.
    fn incr(&mut self, name: &str, by: u64) {
        let slot = self.counters.entry(name.to_owned()).or_insert(0);
        *slot = slot.saturating_add(by);
    }

    fn observe(&mut self, name: &str, bounds: &[f64], value: f64) {
        self.histograms
            .entry(name.to_owned())
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    fn flush_step(&mut self) {
        if self.pending_step.is_empty() {
            return;
        }
        let n = self.pending_step.len() as f64;
        let step_severity: f64 = self.pending_step.iter().sum::<f64>() / n;
        self.pending_step.clear();
        self.observe("step_severity", &SEVERITY_BOUNDS, step_severity);
    }

    /// Renders the registry as a stable human-readable summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "{name} = {value}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{name}: n={} sum={:.6} buckets={:?}",
                h.count(),
                h.sum(),
                h.buckets()
            );
        }
        out
    }

    /// Renders the registry in the OpenMetrics text format: one counter
    /// family per counter (`_total`-suffixed samples), one histogram family
    /// per histogram (cumulative `_bucket{le=...}` samples plus `_sum` and
    /// `_count`), all `voltmargin_`-prefixed, unit-suffixed
    /// (`_s` → `_seconds` with a `# UNIT` line), in name order, terminated
    /// by `# EOF`. Depends only on the registry contents, so it is
    /// byte-identical across reruns; any buffered step severities are
    /// flushed into a snapshot first.
    #[must_use]
    pub fn to_openmetrics(&self) -> String {
        let mut snapshot = self.clone();
        snapshot.flush_step();
        let mut out = String::new();
        for (name, value) in &snapshot.counters {
            let (family, unit) = openmetrics_family(name.strip_suffix("_total").unwrap_or(name));
            let _ = writeln!(out, "# TYPE {family} counter");
            if let Some(unit) = unit {
                let _ = writeln!(out, "# UNIT {family} {unit}");
            }
            let _ = writeln!(out, "{family}_total {value}");
        }
        for (name, h) in &snapshot.histograms {
            let (family, unit) = openmetrics_family(name);
            let _ = writeln!(out, "# TYPE {family} histogram");
            if let Some(unit) = unit {
                let _ = writeln!(out, "# UNIT {family} {unit}");
            }
            let mut cumulative = 0u64;
            for (edge, count) in h.bounds().iter().zip(h.buckets()) {
                cumulative = cumulative.saturating_add(*count);
                let _ = writeln!(out, "{family}_bucket{{le=\"{edge}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{family}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{family}_sum {}", h.sum());
            let _ = writeln!(out, "{family}_count {}", h.count());
        }
        out.push_str("# EOF\n");
        out
    }
}

/// Maps an internal metric name to its `voltmargin_`-prefixed OpenMetrics
/// family name plus the unit implied by its suffix.
fn openmetrics_family(name: &str) -> (String, Option<&'static str>) {
    match name.strip_suffix("_s") {
        Some(stem) => (format!("voltmargin_{stem}_seconds"), Some("seconds")),
        None => match name.strip_suffix("_j") {
            Some(stem) => (format!("voltmargin_{stem}_joules"), Some("joules")),
            None => (format!("voltmargin_{name}"), None),
        },
    }
}

impl Sink for MetricsRegistry {
    fn emit(&mut self, record: &TraceRecord) {
        match &record.event {
            TraceEvent::CampaignStarted { .. } => self.incr("campaigns", 1),
            TraceEvent::ShardScheduled { .. } => self.incr("shards", 1),
            TraceEvent::SweepStarted { .. } => self.incr("sweeps", 1),
            TraceEvent::GoldenCaptured { .. } => self.incr("goldens_captured", 1),
            TraceEvent::VoltageStepped { .. } => {
                self.flush_step();
                self.incr("voltage_steps", 1);
            }
            TraceEvent::RailSet { .. } => self.incr("rail_sets", 1),
            TraceEvent::WatchdogPowerCycle { .. } => self.incr("watchdog_power_cycles", 1),
            TraceEvent::CacheErrorReported {
                level, corrected, ..
            } => {
                let kind = if *corrected { "ce" } else { "ue" };
                self.incr(&format!("cache_errors_{kind}_{level}"), 1);
            }
            TraceEvent::RunCompleted {
                effects,
                severity,
                runtime_s,
                ..
            } => {
                self.incr("runs_total", 1);
                for effect in effects.split('+') {
                    self.incr(&format!("runs_effect_{effect}"), 1);
                }
                self.observe("run_runtime_s", &RUNTIME_BOUNDS, *runtime_s);
                self.observe("run_severity", &SEVERITY_BOUNDS, *severity);
                self.pending_step.push(*severity);
            }
            TraceEvent::SearchStep { .. } => self.incr("search_steps", 1),
            TraceEvent::CacheLookup { hit, .. } => {
                let name = if *hit {
                    "campaign_cache_hits"
                } else {
                    "campaign_cache_misses"
                };
                self.incr(name, 1);
            }
            TraceEvent::SearchConcluded {
                probed_steps,
                grid_steps,
                ..
            } => {
                self.incr("search_items", 1);
                self.incr("search_probed_steps", u64::from(*probed_steps));
                self.incr("search_grid_steps", u64::from(*grid_steps));
            }
            TraceEvent::EarlyStop { .. } => self.incr("early_stops", 1),
            TraceEvent::ProfileSample {
                phase,
                ops,
                fault_samples,
                sram_events,
                cache_probes,
                recoveries,
                ..
            } => {
                self.incr("profile_samples", 1);
                self.incr(&format!("profile_{phase}_ops"), *ops);
                self.incr(&format!("profile_{phase}_fault_samples"), *fault_samples);
                self.incr(&format!("profile_{phase}_sram_events"), *sram_events);
                self.incr(&format!("profile_{phase}_cache_probes"), *cache_probes);
                self.incr(&format!("profile_{phase}_recoveries"), *recoveries);
            }
            TraceEvent::ProfilePhase {
                ops, fault_samples, ..
            } => {
                // Rollups of the per-sweep samples: only the campaign-wide
                // totals are kept, the per-phase shares live in the samples.
                self.incr("profile_phases", 1);
                self.incr("profile_ops", *ops);
                self.incr("profile_fault_samples", *fault_samples);
            }
            TraceEvent::SweepFinished { .. } => self.flush_step(),
            TraceEvent::CampaignFinished { .. } => self.flush_step(),
            TraceEvent::VoltageDecision { .. } => self.incr("governor_decisions", 1),
        }
    }

    fn finish(&mut self) {
        self.flush_step();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::StreamFinalizer;

    fn run(effects: &str, severity: f64) -> TraceEvent {
        TraceEvent::RunCompleted {
            program: "bwaves".into(),
            dataset: "ref".into(),
            core: 0,
            mv: 900,
            iteration: 0,
            effects: effects.into(),
            severity,
            runtime_s: 2e-3,
            energy_j: 1e-2,
            corrected_errors: 0,
            uncorrected_errors: 0,
        }
    }

    fn feed(registry: &mut MetricsRegistry, events: Vec<TraceEvent>) {
        let mut fin = StreamFinalizer::new();
        for e in events {
            let rec = fin.seal(e);
            registry.emit(&rec);
        }
        registry.finish();
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.observe(0.5);
        h.observe(1.5);
        h.observe(99.0);
        assert_eq!(h.buckets(), &[1, 1, 1]);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 101.0).abs() < 1e-12);
    }

    #[test]
    fn effect_classes_and_multi_effect_runs_are_counted() {
        let mut m = MetricsRegistry::new();
        feed(
            &mut m,
            vec![run("NO", 0.0), run("SDC+CE", 5.0), run("SC", 16.0)],
        );
        assert_eq!(m.counter("runs_total"), 3);
        assert_eq!(m.counter("runs_effect_NO"), 1);
        assert_eq!(m.counter("runs_effect_SDC"), 1);
        assert_eq!(m.counter("runs_effect_CE"), 1);
        assert_eq!(m.counter("runs_effect_SC"), 1);
        assert_eq!(m.counter("runs_effect_UE"), 0);
    }

    #[test]
    fn step_severity_flushes_on_step_boundaries() {
        let mut m = MetricsRegistry::new();
        feed(
            &mut m,
            vec![
                TraceEvent::VoltageStepped {
                    rail: "pmd".into(),
                    mv: 905,
                    step: 0,
                },
                run("NO", 0.0),
                run("SC", 16.0),
                TraceEvent::VoltageStepped {
                    rail: "pmd".into(),
                    mv: 900,
                    step: 1,
                },
                run("SC", 16.0),
            ],
        );
        let h = m.histograms.get("step_severity").expect("recorded");
        // Two steps: mean severities 8.0 and 16.0.
        assert_eq!(h.count(), 2);
        assert!((h.sum() - 24.0).abs() < 1e-12);
        assert_eq!(m.counter("voltage_steps"), 2);
    }

    #[test]
    fn cache_errors_and_power_cycles_are_keyed() {
        let mut m = MetricsRegistry::new();
        feed(
            &mut m,
            vec![
                TraceEvent::CacheErrorReported {
                    level: "L2".into(),
                    instance: 1,
                    corrected: true,
                },
                TraceEvent::CacheErrorReported {
                    level: "L3".into(),
                    instance: 0,
                    corrected: false,
                },
                TraceEvent::WatchdogPowerCycle { recovery: 1 },
            ],
        );
        assert_eq!(m.counter("cache_errors_ce_L2"), 1);
        assert_eq!(m.counter("cache_errors_ue_L3"), 1);
        assert_eq!(m.counter("watchdog_power_cycles"), 1);
    }

    #[test]
    fn render_is_stable_and_ordered() {
        let mut m = MetricsRegistry::new();
        feed(&mut m, vec![run("NO", 0.0)]);
        let a = m.render();
        let b = m.clone().render();
        assert_eq!(a, b);
        assert!(a.contains("runs_total = 1"));
    }

    #[test]
    fn empty_histogram_has_zero_everything() {
        let h = Histogram::new(&[1.0, 2.0]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum().to_bits(), 0.0f64.to_bits());
        assert_eq!(h.buckets(), &[0, 0, 0]);
    }

    #[test]
    fn single_sample_lands_in_exactly_one_bucket() {
        for (value, expected) in [(0.5, [1, 0, 0]), (2.0, [0, 1, 0]), (9.0, [0, 0, 1])] {
            let mut h = Histogram::new(&[1.0, 2.0]);
            h.observe(value);
            assert_eq!(h.buckets(), &expected, "value {value}");
            assert_eq!(h.count(), 1);
            assert!((h.sum() - value).abs() < 1e-12);
        }
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut m = MetricsRegistry::new();
        m.incr("near_max", u64::MAX - 1);
        m.incr("near_max", 5);
        assert_eq!(m.counter("near_max"), u64::MAX);
        m.incr("near_max", 1);
        assert_eq!(m.counter("near_max"), u64::MAX);
    }

    #[test]
    fn openmetrics_exposition_is_deterministic_and_terminated() {
        let mut m = MetricsRegistry::new();
        feed(
            &mut m,
            vec![
                TraceEvent::VoltageStepped {
                    rail: "pmd".into(),
                    mv: 905,
                    step: 0,
                },
                run("NO", 0.0),
                run("SC", 16.0),
            ],
        );
        let text = m.to_openmetrics();
        assert_eq!(text, m.clone().to_openmetrics());
        assert!(text.ends_with("# EOF\n"));
        assert!(text.contains("# TYPE voltmargin_runs counter"));
        assert!(text.contains("voltmargin_runs_total 2"));
        assert!(text.contains("# TYPE voltmargin_run_runtime_seconds histogram"));
        assert!(text.contains("# UNIT voltmargin_run_runtime_seconds seconds"));
        assert!(text.contains("voltmargin_run_runtime_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("voltmargin_run_runtime_seconds_count 2"));
        // Cumulative buckets: every run of 2e-3 s falls at or under 1e-2.
        assert!(text.contains("voltmargin_run_runtime_seconds_bucket{le=\"0.01\"} 2"));
        // Exposition does not mutate the registry's buffered state.
        assert!(text.contains("voltmargin_step_severity_count 1"));
        assert_eq!(
            m.histograms.get("step_severity").map(Histogram::count),
            Some(1)
        );
    }
}
