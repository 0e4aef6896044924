//! Figures 3 and 4: the multi-chip, per-core Vmin characterization.

use crate::scale::Scale;
use margins_core::config::CampaignConfig;
use margins_core::exec::{ExecContext, ThreadPoolExecutor};
use margins_core::regions::{analyze, CharacterizationResult};
use margins_core::runner::Campaign;
use margins_core::severity::SeverityWeights;
use margins_sim::{ChipSpec, CoreId, Millivolts};
use std::fmt::Write as _;

/// One chip's full characterization.
#[derive(Debug, Clone)]
pub struct ChipCharacterization {
    /// The chip.
    pub spec: ChipSpec,
    /// Its analyzed campaign.
    pub result: CharacterizationResult,
}

/// Runs the Figure 3/4 characterization for one chip at the given scale.
#[must_use]
pub fn characterize_chip(spec: ChipSpec, scale: &Scale) -> ChipCharacterization {
    characterize_chip_traced(spec, scale, &mut [])
}

/// Like [`characterize_chip`], but streams the campaign's telemetry into
/// `sinks` (an empty slice disables tracing entirely).
fn characterize_chip_traced(
    spec: ChipSpec,
    scale: &Scale,
    sinks: &mut [&mut dyn margins_trace::Sink],
) -> ChipCharacterization {
    let config = CampaignConfig::builder()
        .benchmarks(scale.fig4_benchmarks.iter().copied())
        .cores(scale.fig4_cores.iter().copied())
        .iterations(scale.iterations)
        .start_voltage(Millivolts::new(945))
        .floor_voltage(Millivolts::new(830))
        .crash_stop_steps(2)
        .seed(0xF164)
        .build()
        .expect("figure-4 configuration is valid");
    let ctx = ExecContext {
        sinks,
        ..ExecContext::new()
    };
    let outcome = ThreadPoolExecutor::new(scale.threads)
        .and_then(|pool| Campaign::new(spec, config).run(&pool, ctx))
        .expect("a valid pool runs the campaign");
    ChipCharacterization {
        spec,
        result: analyze(&outcome, &SeverityWeights::paper()),
    }
}

/// Characterizes every chip like [`characterize_chip`], with the full
/// observability surface: alongside each chip's JSONL stream a per-chip analytics
/// summary (`fig34-<chip>-summary.md`, via `margins-scope`) is written,
/// and when a `metrics` registry is supplied every chip's record stream
/// is accumulated into it for OpenMetrics exposition.
///
/// # Errors
///
/// Returns the first IO error hit while creating or writing an output
/// file.
pub fn characterize_all_instrumented(
    scale: &Scale,
    trace_dir: Option<&std::path::Path>,
    mut metrics: Option<&mut margins_trace::MetricsRegistry>,
) -> std::io::Result<Vec<ChipCharacterization>> {
    let mut out = Vec::new();
    for spec in crate::chips::all() {
        let instrumented = trace_dir.is_some() || metrics.is_some();
        if !instrumented {
            out.push(characterize_chip(spec, scale));
            continue;
        }
        // One in-memory copy of the stream serves the summary, the
        // registry and (via JsonlSink) the on-disk trace, so every
        // artifact describes the identical record sequence.
        let mut memory = margins_trace::MemorySink::new();
        let c = match trace_dir {
            Some(dir) => {
                let stem = format!("fig34-{}", spec.to_string().replace('#', "-"));
                let file = std::fs::File::create(dir.join(format!("{stem}.jsonl")))?;
                let mut sink = margins_trace::JsonlSink::new(std::io::BufWriter::new(file));
                let c = characterize_chip_traced(spec, scale, &mut [&mut sink, &mut memory]);
                sink.into_inner()?;
                let summary = margins_scope::summarize_records(&memory.records)
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
                std::fs::write(
                    dir.join(format!("{stem}-summary.md")),
                    margins_scope::markdown(&summary),
                )?;
                c
            }
            None => characterize_chip_traced(spec, scale, &mut [&mut memory]),
        };
        if let Some(registry) = metrics.as_deref_mut() {
            for record in &memory.records {
                margins_trace::Sink::emit(registry, record);
            }
            margins_trace::Sink::finish(registry);
        }
        out.push(c);
    }
    Ok(out)
}

/// The Figure 3 report: per benchmark and per chip, the safe Vmin of the
/// most robust core (the paper's blue/orange/grey series).
#[must_use]
pub fn fig3_report(chips: &[ChipCharacterization], scale: &Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 3 — Vmin (mV) at 2.4 GHz, most robust core per chip (nominal 980 mV)"
    );
    let _ = write!(out, "{:<12}", "benchmark");
    for c in chips {
        let _ = write!(out, "{:>10}", c.spec.corner().to_string());
    }
    let _ = writeln!(out, "{:>14}", "guardband(TTT)");
    for bench in &scale.fig4_benchmarks {
        let _ = write!(out, "{bench:<12}");
        let mut ttt_vmin = None;
        for c in chips {
            match c.result.most_robust_core(bench) {
                Some((_, v)) => {
                    if c.spec.corner() == margins_sim::Corner::Ttt {
                        ttt_vmin = Some(v);
                    }
                    let _ = write!(out, "{:>10}", v.get());
                }
                None => {
                    let _ = write!(out, "{:>10}", "-");
                }
            }
        }
        match ttt_vmin {
            Some(v) => {
                let saving = 1.0 - (v.as_f64() / 980.0).powi(2);
                let _ = writeln!(out, "{:>13.1}%", saving * 100.0);
            }
            None => {
                let _ = writeln!(out, "{:>14}", "-");
            }
        }
    }
    out
}

/// The Figure 4 report: per benchmark, per chip, per core — the region
/// band, the conservative Vmin, the highest crash voltage and the average
/// Vmin/crash lines.
#[must_use]
pub fn fig4_report(chips: &[ChipCharacterization], scale: &Scale) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 4 — regions of operation ('.' safe, '#' unsafe, 'X' crash), sweep 945→830 mV"
    );
    for bench in &scale.fig4_benchmarks {
        let _ = writeln!(out, "\n== {bench} ==");
        for c in chips {
            let _ = writeln!(out, " chip {}", c.spec);
            for core in &scale.fig4_cores {
                let Some(s) = c.result.summary(bench, "ref", *core) else {
                    continue;
                };
                let band: String = s
                    .steps
                    .iter()
                    .map(|st| match st.region {
                        margins_core::regions::RegionKind::Safe => '.',
                        margins_core::regions::RegionKind::Unsafe => '#',
                        margins_core::regions::RegionKind::Crash => 'X',
                    })
                    .collect();
                let _ = writeln!(
                    out,
                    "  core{} {band:<21} vmin={:<5} crash={:<5} avg_vmin={:<7} avg_crash={}",
                    core.index(),
                    opt_mv(s.safe_vmin),
                    opt_mv(s.highest_crash),
                    opt_f(s.average_vmin),
                    opt_f(s.average_crash),
                );
            }
        }
    }
    out
}

/// Cross-chip/core headline statistics used by the EXPERIMENTS.md record
/// and asserted by integration tests.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Stats {
    /// Mean safe Vmin per chip (over benchmarks × cores), mV.
    pub mean_vmin_per_chip: Vec<(String, f64)>,
    /// The most robust PMD index per chip (by mean Vmin of its cores).
    pub most_robust_pmd: Vec<(String, usize)>,
    /// Workload Vmin spread (max − min across benchmarks) on the TTT
    /// robust core, mV.
    pub ttt_workload_spread_mv: f64,
}

/// Computes the headline statistics from the characterizations.
#[must_use]
pub fn fig4_stats(chips: &[ChipCharacterization], scale: &Scale) -> Fig4Stats {
    let mut mean_vmin_per_chip = Vec::new();
    let mut most_robust_pmd = Vec::new();
    for c in chips {
        let vmins: Vec<f64> = c
            .result
            .summaries
            .iter()
            .filter_map(|s| s.safe_vmin.map(|v| v.as_f64()))
            .collect();
        let mean = vmins.iter().sum::<f64>() / vmins.len().max(1) as f64;
        mean_vmin_per_chip.push((c.spec.to_string(), mean));

        // Rank PMDs by the mean Vmin of their cores.
        let mut best_pmd = 0usize;
        let mut best = f64::INFINITY;
        for pmd in 0..4usize {
            let vs: Vec<f64> = c
                .result
                .summaries
                .iter()
                .filter(|s| s.core.pmd().index() == pmd)
                .filter_map(|s| s.safe_vmin.map(|v| v.as_f64()))
                .collect();
            if vs.is_empty() {
                continue;
            }
            let m = vs.iter().sum::<f64>() / vs.len() as f64;
            if m < best {
                best = m;
                best_pmd = pmd;
            }
        }
        most_robust_pmd.push((c.spec.to_string(), best_pmd));
    }

    // Workload spread on the TTT chip's most robust core (core 4).
    let ttt = &chips[0];
    let core = CoreId::new(4);
    let mut vmins: Vec<f64> = scale
        .fig4_benchmarks
        .iter()
        .filter_map(|b| ttt.result.summary(b, "ref", core))
        .filter_map(|s| s.safe_vmin.map(|v| v.as_f64()))
        .collect();
    vmins.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let spread = match (vmins.first(), vmins.last()) {
        (Some(lo), Some(hi)) => hi - lo,
        _ => 0.0,
    };

    Fig4Stats {
        mean_vmin_per_chip,
        most_robust_pmd,
        ttt_workload_spread_mv: spread,
    }
}

fn opt_mv(v: Option<Millivolts>) -> String {
    v.map_or_else(|| "-".into(), |x| x.get().to_string())
}

fn opt_f(v: Option<f64>) -> String {
    v.map_or_else(|| "-".into(), |x| format!("{x:.1}"))
}
