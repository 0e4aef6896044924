//! Population analytics: Vmin and guardband-margin distributions over a
//! chip fleet.
//!
//! A merged fleet stream holds one campaign per chip. The per-chip view
//! ([`crate::fleet`]) answers "how did each chip do"; this module answers
//! the population questions the paper's Fig. 3/4 ask of real silicon:
//! how are binding Vmins distributed across a corner, how much guardband
//! the worst chip leaves on the table, and what the severity mix of the
//! abnormal tail looks like.
//!
//! Semantics match the fleet daemon's streamed `chip-finished` events
//! exactly, since both apply [`margins_trace::vmin`]: a sweep's Vmin is
//! the lowest step of the unbroken all-normal prefix walking down from
//! the highest probed step; a chip's binding Vmin is the *maximum* over
//! its sweeps (the sweep that gives up first binds the chip); a chip is
//! *censored* when any sweep misbehaves at its highest probed step.
//! Margins are measured against the corner's nominal (highest probed)
//! voltage.
//!
//! Like every other report in this crate, the fold is a pure function of
//! the record sequence: reruns, thread counts and subscriber presence
//! never change a byte of the output.

use margins_trace::json::{self, Value};
use margins_trace::vmin::{binding_vmin, SweepSteps};
use margins_trace::{reconstruct, CampaignSpan, SpanError, TraceEvent, TraceRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Histogram bucket width for Vmin/margin distributions, millivolts.
/// Matches the 5 mV sweep granularity of the reference campaigns, so one
/// bucket is one probed step.
const BUCKET_WIDTH_MV: u32 = 5;

/// One fixed-width histogram bucket covering `[lo_mv, lo_mv + width)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bucket {
    /// Inclusive lower bound, millivolts.
    pub lo_mv: u32,
    /// Samples in the bucket.
    pub count: u64,
}

/// Order statistics plus a fixed-width histogram over millivolt samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Distribution {
    /// Number of samples.
    pub count: u64,
    /// Smallest sample.
    pub min_mv: u32,
    /// Median (nearest-rank).
    pub p50_mv: u32,
    /// 95th percentile (nearest-rank).
    pub p95_mv: u32,
    /// Largest sample.
    pub max_mv: u32,
    /// Contiguous 5 mV-wide buckets from `min` to `max`,
    /// empty buckets included.
    pub buckets: Vec<Bucket>,
}

impl Distribution {
    /// Builds the distribution of a non-empty sample set; `None` for an
    /// empty one.
    #[must_use]
    fn of(samples: &[u32]) -> Option<Distribution> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        // Nearest-rank percentile: the smallest sample with at least
        // p% of the population at or below it.
        let rank = |pct: usize| sorted[(n * pct).div_ceil(100).max(1) - 1];
        let (min_mv, max_mv) = (sorted[0], sorted[n - 1]);
        let lo = min_mv / BUCKET_WIDTH_MV * BUCKET_WIDTH_MV;
        let hi = max_mv / BUCKET_WIDTH_MV * BUCKET_WIDTH_MV;
        let mut buckets: Vec<Bucket> = (lo..=hi)
            .step_by(BUCKET_WIDTH_MV as usize)
            .map(|lo_mv| Bucket { lo_mv, count: 0 })
            .collect();
        for &mv in &sorted {
            let at = ((mv - lo) / BUCKET_WIDTH_MV) as usize;
            buckets[at].count += 1;
        }
        Some(Distribution {
            count: n as u64,
            min_mv,
            p50_mv: rank(50),
            p95_mv: rank(95),
            max_mv,
            buckets,
        })
    }
}

/// Vmin population of one (benchmark, dataset, core) sweep across every
/// chip of a corner.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPopulation {
    /// Sweep label, e.g. `namd:ref@core0`.
    pub label: String,
    /// Chips whose sweep misbehaved at its highest probed step.
    pub censored: u64,
    /// Vmin distribution over the uncensored chips.
    pub vmin: Option<Distribution>,
}

/// Everything the population knows about one process corner.
#[derive(Debug, Clone, PartialEq)]
pub struct CornerPopulation {
    /// Corner label — the chip-id prefix before `#`, e.g. `TTT`.
    pub corner: String,
    /// Chips characterized in this corner.
    pub chips: u64,
    /// Chips with no binding Vmin (some sweep misbehaved at nominal).
    pub censored: u64,
    /// Nominal voltage: the highest step any run in the corner probed.
    pub nominal_mv: u32,
    /// Binding-Vmin distribution over the uncensored chips.
    pub vmin: Option<Distribution>,
    /// Guardband-margin (`nominal − Vmin`) distribution over the same
    /// chips.
    pub margin: Option<Distribution>,
    /// Classified runs across the corner's chips.
    pub runs: u64,
    /// Runs per observed effect combination (`NO`, `SDC+CE`, …).
    pub outcomes: BTreeMap<String, u64>,
    /// Sum of per-run severities across the corner.
    pub severity_sum: f64,
    /// Largest per-run severity observed in the corner.
    pub severity_max: f64,
    /// Per-sweep sub-populations, in sweep-label order.
    pub sweeps: Vec<SweepPopulation>,
}

/// The full population report: one entry per corner, in corner order.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationReport {
    /// Per-corner populations.
    pub corners: Vec<CornerPopulation>,
}

/// One chip folded down to what the population cares about.
struct ChipFold {
    corner: String,
    nominal_mv: u32,
    /// Per sweep label, its probed steps.
    sweeps: BTreeMap<String, SweepSteps>,
    runs: u64,
    outcomes: BTreeMap<String, u64>,
    severity_sum: f64,
    severity_max: f64,
}

fn fold_chip(campaign: &CampaignSpan) -> ChipFold {
    let corner = campaign
        .chip
        .split_once('#')
        .map_or(campaign.chip.as_str(), |(prefix, _)| prefix)
        .to_owned();
    let mut fold = ChipFold {
        corner,
        nominal_mv: 0,
        sweeps: BTreeMap::new(),
        runs: 0,
        outcomes: BTreeMap::new(),
        severity_sum: 0.0,
        severity_max: 0.0,
    };
    for sweep in &campaign.sweeps {
        let steps = fold.sweeps.entry(sweep.label()).or_default();
        for leaf in &sweep.leaves {
            if let TraceEvent::RunCompleted {
                mv,
                effects,
                severity,
                ..
            } = &leaf.event
            {
                fold.nominal_mv = fold.nominal_mv.max(*mv);
                steps.record(*mv, effects);
                fold.runs += 1;
                *fold.outcomes.entry(effects.clone()).or_insert(0) += 1;
                fold.severity_sum += severity;
                fold.severity_max = fold.severity_max.max(*severity);
            }
        }
    }
    fold
}

/// Folds a merged fleet stream into per-corner population analytics.
///
/// # Errors
///
/// [`SpanError`] when the record sequence is not a valid stream
/// (unbalanced spans, broken seq/clock invariants).
pub fn population_report(records: &[TraceRecord]) -> Result<PopulationReport, SpanError> {
    let tree = reconstruct(records)?;
    let chips: Vec<ChipFold> = tree.campaigns.iter().map(fold_chip).collect();

    let mut corners: BTreeMap<String, Vec<&ChipFold>> = BTreeMap::new();
    for chip in &chips {
        corners.entry(chip.corner.clone()).or_default().push(chip);
    }

    let corners = corners
        .into_iter()
        .map(|(corner, chips)| {
            let nominal_mv = chips.iter().map(|c| c.nominal_mv).max().unwrap_or(0);
            let mut vmins = Vec::new();
            let mut margins = Vec::new();
            let mut censored = 0u64;
            let mut runs = 0u64;
            let mut outcomes: BTreeMap<String, u64> = BTreeMap::new();
            let mut severity_sum = 0.0f64;
            let mut severity_max = 0.0f64;
            let mut sweep_vmins: BTreeMap<String, (Vec<u32>, u64)> = BTreeMap::new();
            for chip in &chips {
                for (label, steps) in &chip.sweeps {
                    let (population, sweep_censored) =
                        sweep_vmins.entry(label.clone()).or_default();
                    match steps.vmin() {
                        Some(mv) => population.push(mv),
                        None => *sweep_censored += 1,
                    }
                }
                match binding_vmin(chip.sweeps.values()) {
                    Some(mv) => {
                        vmins.push(mv);
                        margins.push(nominal_mv - mv);
                    }
                    None => censored += 1,
                }
                runs += chip.runs;
                for (effects, count) in &chip.outcomes {
                    *outcomes.entry(effects.clone()).or_insert(0) += count;
                }
                severity_sum += chip.severity_sum;
                severity_max = severity_max.max(chip.severity_max);
            }
            CornerPopulation {
                corner,
                chips: chips.len() as u64,
                censored,
                nominal_mv,
                vmin: Distribution::of(&vmins),
                margin: Distribution::of(&margins),
                runs,
                outcomes,
                severity_sum,
                severity_max,
                sweeps: sweep_vmins
                    .into_iter()
                    .map(|(label, (population, sweep_censored))| SweepPopulation {
                        label,
                        censored: sweep_censored,
                        vmin: Distribution::of(&population),
                    })
                    .collect(),
            }
        })
        .collect();
    Ok(PopulationReport { corners })
}

impl PopulationReport {
    /// Renders the population as markdown.
    #[must_use]
    pub fn markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# trace-scope fleet population");
        let _ = writeln!(out);
        let _ = writeln!(out, "{} corner(s).", self.corners.len());
        for corner in &self.corners {
            markdown_corner(&mut out, corner);
        }
        out
    }

    /// Renders the population as JSON.
    #[must_use]
    pub fn json(&self) -> String {
        let mut root = BTreeMap::new();
        root.insert(
            "corners".to_owned(),
            Value::Array(self.corners.iter().map(corner_value).collect()),
        );
        let mut out = json::render(&Value::Object(root));
        out.push('\n');
        out
    }

    /// Renders the population as CSV: one `corner` row per corner
    /// followed by one `sweep` row per sweep sub-population.
    #[must_use]
    pub fn csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "scope,corner,label,chips,censored,nominal_mv,vmin_min,vmin_p50,vmin_p95,vmin_max,\
             margin_min,margin_p50,margin_p95,margin_max,runs,severity_sum,severity_max"
        );
        let stats = |d: &Option<Distribution>| -> String {
            d.as_ref().map_or_else(
                || ",,,".to_owned(),
                |d| format!("{},{},{},{}", d.min_mv, d.p50_mv, d.p95_mv, d.max_mv),
            )
        };
        for c in &self.corners {
            let _ = writeln!(
                out,
                "corner,{},,{},{},{},{},{},{},{},{}",
                c.corner,
                c.chips,
                c.censored,
                c.nominal_mv,
                stats(&c.vmin),
                stats(&c.margin),
                c.runs,
                json::fmt_f64(c.severity_sum),
                json::fmt_f64(c.severity_max)
            );
            for s in &c.sweeps {
                let _ = writeln!(
                    out,
                    "sweep,{},{},{},{},{},{},,,,,,,",
                    c.corner,
                    s.label,
                    s.vmin.as_ref().map_or(0, |d| d.count),
                    s.censored,
                    c.nominal_mv,
                    stats(&s.vmin)
                );
            }
        }
        out
    }
}

fn markdown_corner(out: &mut String, c: &CornerPopulation) {
    let _ = writeln!(out);
    let _ = writeln!(out, "## Corner {}", c.corner);
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "- {} chip(s), {} censored, nominal {} mV, {} run(s)",
        c.chips, c.censored, c.nominal_mv, c.runs
    );
    let dist_row = |name: &str, d: &Distribution| {
        format!(
            "| {name} | {} | {} | {} | {} | {} |",
            d.count, d.min_mv, d.p50_mv, d.p95_mv, d.max_mv
        )
    };
    if let (Some(vmin), Some(margin)) = (&c.vmin, &c.margin) {
        let _ = writeln!(out);
        let _ = writeln!(out, "| distribution | chips | min | p50 | p95 | max |");
        let _ = writeln!(out, "|---|---|---|---|---|---|");
        let _ = writeln!(out, "{}", dist_row("binding Vmin (mV)", vmin));
        let _ = writeln!(out, "{}", dist_row("guardband margin (mV)", margin));
        let _ = writeln!(out);
        let _ = writeln!(out, "| Vmin bucket (mV) | chips |");
        let _ = writeln!(out, "|---|---|");
        for bucket in &vmin.buckets {
            let _ = writeln!(
                out,
                "| {}–{} | {} |",
                bucket.lo_mv,
                bucket.lo_mv + BUCKET_WIDTH_MV - 1,
                bucket.count
            );
        }
    }
    if !c.outcomes.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "| outcome | runs |");
        let _ = writeln!(out, "|---|---|");
        for (effects, count) in &c.outcomes {
            let _ = writeln!(out, "| {effects} | {count} |");
        }
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "severity: sum {}, max {}",
            json::fmt_f64(c.severity_sum),
            json::fmt_f64(c.severity_max)
        );
    }
    if !c.sweeps.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "| sweep | chips | censored | min | p50 | p95 | max |");
        let _ = writeln!(out, "|---|---|---|---|---|---|---|");
        for s in &c.sweeps {
            match &s.vmin {
                Some(d) => {
                    let _ = writeln!(
                        out,
                        "| {} | {} | {} | {} | {} | {} | {} |",
                        s.label, d.count, s.censored, d.min_mv, d.p50_mv, d.p95_mv, d.max_mv
                    );
                }
                None => {
                    let _ = writeln!(out, "| {} | 0 | {} | – | – | – | – |", s.label, s.censored);
                }
            }
        }
    }
}

fn distribution_value(d: &Distribution) -> Value {
    let mut map = BTreeMap::new();
    map.insert("count".to_owned(), Value::from_u64(d.count));
    map.insert("min_mv".to_owned(), Value::from_u64(d.min_mv.into()));
    map.insert("p50_mv".to_owned(), Value::from_u64(d.p50_mv.into()));
    map.insert("p95_mv".to_owned(), Value::from_u64(d.p95_mv.into()));
    map.insert("max_mv".to_owned(), Value::from_u64(d.max_mv.into()));
    map.insert(
        "buckets".to_owned(),
        Value::Array(
            d.buckets
                .iter()
                .map(|b| {
                    let mut bucket = BTreeMap::new();
                    bucket.insert("lo_mv".to_owned(), Value::from_u64(b.lo_mv.into()));
                    bucket.insert("count".to_owned(), Value::from_u64(b.count));
                    Value::Object(bucket)
                })
                .collect(),
        ),
    );
    Value::Object(map)
}

fn corner_value(c: &CornerPopulation) -> Value {
    let mut map = BTreeMap::new();
    map.insert("corner".to_owned(), Value::from_str_val(&c.corner));
    map.insert("chips".to_owned(), Value::from_u64(c.chips));
    map.insert("censored".to_owned(), Value::from_u64(c.censored));
    map.insert(
        "nominal_mv".to_owned(),
        Value::from_u64(c.nominal_mv.into()),
    );
    if let Some(d) = &c.vmin {
        map.insert("vmin".to_owned(), distribution_value(d));
    }
    if let Some(d) = &c.margin {
        map.insert("margin".to_owned(), distribution_value(d));
    }
    map.insert("runs".to_owned(), Value::from_u64(c.runs));
    map.insert(
        "outcomes".to_owned(),
        Value::Object(
            c.outcomes
                .iter()
                .map(|(effects, count)| (effects.clone(), Value::from_u64(*count)))
                .collect(),
        ),
    );
    map.insert("severity_sum".to_owned(), Value::from_f64(c.severity_sum));
    map.insert("severity_max".to_owned(), Value::from_f64(c.severity_max));
    map.insert(
        "sweeps".to_owned(),
        Value::Array(
            c.sweeps
                .iter()
                .map(|s| {
                    let mut sweep = BTreeMap::new();
                    sweep.insert("label".to_owned(), Value::from_str_val(&s.label));
                    sweep.insert("censored".to_owned(), Value::from_u64(s.censored));
                    if let Some(d) = &s.vmin {
                        sweep.insert("vmin".to_owned(), distribution_value(d));
                    }
                    Value::Object(sweep)
                })
                .collect(),
        ),
    );
    Value::Object(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_set_has_no_distribution() {
        assert_eq!(Distribution::of(&[]), None);
    }

    #[test]
    fn distribution_orders_and_buckets_samples() {
        let d = Distribution::of(&[885, 875, 880, 885]).expect("non-empty");
        assert_eq!(
            (d.count, d.min_mv, d.p50_mv, d.p95_mv, d.max_mv),
            (4, 875, 880, 885, 885)
        );
        assert_eq!(
            d.buckets,
            vec![
                Bucket {
                    lo_mv: 875,
                    count: 1
                },
                Bucket {
                    lo_mv: 880,
                    count: 1
                },
                Bucket {
                    lo_mv: 885,
                    count: 2
                },
            ]
        );
    }

    #[test]
    fn single_sample_percentiles_collapse() {
        let d = Distribution::of(&[890]).expect("non-empty");
        assert_eq!(
            (d.count, d.min_mv, d.p50_mv, d.p95_mv, d.max_mv),
            (1, 890, 890, 890, 890)
        );
        assert_eq!(d.buckets.len(), 1);
    }

    #[test]
    fn sweep_vmin_walks_the_all_normal_prefix_down() {
        let sweep = |runs: &[(u32, &str)]| {
            let mut steps = SweepSteps::default();
            for &(mv, effects) in runs {
                steps.record(mv, effects);
            }
            steps
        };
        let steps = sweep(&[(870, "SC"), (875, "SDC"), (880, "NO"), (885, "NO")]);
        assert_eq!(steps.vmin(), Some(880));
        // Misbehaviour at the top censors the sweep even when lower
        // steps happened to pass.
        let censored = sweep(&[(880, "NO"), (885, "CE")]);
        assert_eq!(censored.vmin(), None);
        // A hole in the prefix binds at the hole, not below it; one
        // abnormal run makes its step abnormal.
        let holed = sweep(&[(875, "NO"), (880, "NO"), (880, "UE"), (885, "NO")]);
        assert_eq!(holed.vmin(), Some(885));
    }

    #[test]
    fn empty_stream_reports_no_corners() {
        let report = population_report(&[]).expect("empty stream is valid");
        assert!(report.corners.is_empty());
        assert!(report.markdown().contains("0 corner(s)"));
        assert!(report.json().contains("\"corners\":[]"));
        assert_eq!(report.csv().lines().count(), 1);
    }
}
