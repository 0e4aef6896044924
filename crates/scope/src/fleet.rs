//! Fleet rollups: one row per chip over a merged multi-campaign stream.
//!
//! A fleet daemon run (`voltmargin serve`) merges many per-chip campaign
//! streams into one canonical JSONL file. [`fleet_report`] folds such a
//! stream into a [`FleetReport`]: one [`ChipRollup`] per campaign, in
//! stream order (which for daemon output is the canonical chip order),
//! plus fleet-wide totals. Like every other report in this crate the
//! rollup is a pure function of the record sequence — two reports over
//! the same merged stream are byte-identical.

use crate::summary::{summarize_records, StreamSummary};
use margins_trace::json;
use margins_trace::{SpanError, TraceRecord};
use std::fmt::Write as _;

/// Per-chip totals folded out of one campaign of a merged fleet stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipRollup {
    /// Chip identity, e.g. `TTT#17`.
    pub chip: String,
    /// Completed benchmark runs.
    pub runs: u64,
    /// Watchdog power cycles.
    pub power_cycles: u64,
    /// Voltage steps actually probed on the (simulated) machine.
    pub machine_probes: u64,
    /// Campaign-cache lookups.
    pub cache_lookups: u64,
    /// Campaign-cache hits.
    pub cache_hits: u64,
    /// Modelled energy spent, joules.
    pub energy_j: f64,
    /// Modelled runtime, seconds.
    pub runtime_s: f64,
}

/// A fleet-wide characterization rollup: per-chip rows plus totals.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// One row per campaign, in stream (canonical chip) order.
    pub chips: Vec<ChipRollup>,
}

impl FleetReport {
    /// Fleet-wide totals across every chip row.
    #[must_use]
    fn totals(&self) -> ChipRollup {
        let mut total = ChipRollup {
            chip: "fleet".to_owned(),
            runs: 0,
            power_cycles: 0,
            machine_probes: 0,
            cache_lookups: 0,
            cache_hits: 0,
            energy_j: 0.0,
            runtime_s: 0.0,
        };
        for row in &self.chips {
            total.runs += row.runs;
            total.power_cycles += row.power_cycles;
            total.machine_probes += row.machine_probes;
            total.cache_lookups += row.cache_lookups;
            total.cache_hits += row.cache_hits;
            total.energy_j += row.energy_j;
            total.runtime_s += row.runtime_s;
        }
        total
    }

    /// Renders the rollup as a markdown table.
    #[must_use]
    pub fn markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# trace-scope fleet rollup");
        let _ = writeln!(out);
        let _ = writeln!(out, "{} chip(s) characterized.", self.chips.len());
        let _ = writeln!(out);
        let _ = writeln!(
            out,
            "| chip | runs | power cycles | machine probes | cache hits | energy (J) | runtime (s) |"
        );
        let _ = writeln!(out, "|---|---|---|---|---|---|---|");
        let totals = self.totals();
        for row in self.chips.iter().chain(std::iter::once(&totals)) {
            let _ = writeln!(
                out,
                "| {} | {} | {} | {} | {}/{} | {} | {} |",
                row.chip,
                row.runs,
                row.power_cycles,
                row.machine_probes,
                row.cache_hits,
                row.cache_lookups,
                json::fmt_f64(row.energy_j),
                json::fmt_f64(row.runtime_s)
            );
        }
        out
    }

    /// Renders the rollup as CSV (header, chip rows, totals row).
    #[must_use]
    pub fn csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "chip,runs,power_cycles,machine_probes,cache_lookups,cache_hits,energy_j,runtime_s"
        );
        let totals = self.totals();
        for row in self.chips.iter().chain(std::iter::once(&totals)) {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{}",
                row.chip,
                row.runs,
                row.power_cycles,
                row.machine_probes,
                row.cache_lookups,
                row.cache_hits,
                json::fmt_f64(row.energy_j),
                json::fmt_f64(row.runtime_s)
            );
        }
        out
    }
}

/// Folds a merged fleet stream into per-chip rollups.
///
/// # Errors
///
/// Propagates [`SpanError`] when the record sequence is not a valid
/// stream (unbalanced spans, broken seq/clock invariants).
pub fn fleet_report(records: &[TraceRecord]) -> Result<FleetReport, SpanError> {
    Ok(rollup(&summarize_records(records)?))
}

/// Folds an already-computed stream summary into per-chip rollups.
#[must_use]
fn rollup(summary: &StreamSummary) -> FleetReport {
    let chips = summary
        .campaigns
        .iter()
        .map(|c| ChipRollup {
            chip: c.chip.clone(),
            runs: c.runs,
            power_cycles: u64::from(c.power_cycles),
            machine_probes: c.sweeps.iter().map(|s| s.machine_probes).sum(),
            cache_lookups: c.cache_lookups,
            cache_hits: c.cache_hits,
            energy_j: c.energy_j,
            runtime_s: c.runtime_s,
        })
        .collect();
    FleetReport { chips }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(chip: &str, runs: u64) -> ChipRollup {
        ChipRollup {
            chip: chip.to_owned(),
            runs,
            power_cycles: 1,
            machine_probes: 2 * runs,
            cache_lookups: runs,
            cache_hits: runs / 2,
            energy_j: 1.5,
            runtime_s: 0.25,
        }
    }

    #[test]
    fn totals_sum_every_column() {
        let report = FleetReport {
            chips: vec![row("TTT#0", 4), row("TTT#1", 6)],
        };
        let totals = report.totals();
        assert_eq!(totals.chip, "fleet");
        assert_eq!(totals.runs, 10);
        assert_eq!(totals.power_cycles, 2);
        assert_eq!(totals.machine_probes, 20);
        assert_eq!(totals.cache_lookups, 10);
        assert_eq!(totals.cache_hits, 5);
        assert!((totals.energy_j - 3.0).abs() < 1e-12);
        assert!((totals.runtime_s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn renders_are_deterministic_and_list_every_chip() {
        let report = FleetReport {
            chips: vec![row("TTT#0", 4), row("TTT#1", 6)],
        };
        let md = report.markdown();
        assert_eq!(md, report.markdown());
        assert!(md.contains("| TTT#0 |"), "{md}");
        assert!(md.contains("| TTT#1 |"), "{md}");
        assert!(md.contains("| fleet |"), "{md}");
        let csv = report.csv();
        assert_eq!(csv.lines().count(), 4, "{csv}");
        assert!(csv.starts_with("chip,runs,"), "{csv}");
        assert!(csv.ends_with("fleet,10,2,20,10,5,3.0,0.5\n"), "{csv}");
    }

    #[test]
    fn empty_stream_rolls_up_to_no_chips() {
        let report = fleet_report(&[]).expect("empty stream is valid");
        assert!(report.chips.is_empty());
        assert_eq!(report.totals().runs, 0);
    }
}
