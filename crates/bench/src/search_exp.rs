//! The adaptive-search study: exhaustive vs bisection vs warm-start probe
//! counts, and the boundary-equivalence claim the conformance suite
//! (`tests/search_equivalence.rs`) enforces, on the Figure 3/4 reference
//! campaign bounds.
//!
//! The equivalence claim is scoped by the paper's §3 region model: an
//! adaptive search is provably identical to the exhaustive sweep on every
//! item whose (deterministic, visit-order-independent) step verdicts form
//! contiguous regions — Safe above Unsafe above Crash. Items where the
//! sampled verdicts violate contiguity (possible at low iteration counts
//! right at the stochastic boundary) are reported separately: there the
//! adaptive search still returns a *confirmed* boundary (the abnormal step
//! it found, with the step directly above probed normal), but no
//! sub-linear probe order can promise the global first-abnormal step.

use crate::scale::Scale;
use margins_core::config::CampaignConfig;
use margins_core::exec::{ExecContext, ThreadPoolExecutor};
use margins_core::regions::{analyze, CharacterizationResult, RegionKind, SweepSummary};
use margins_core::runner::Campaign;
use margins_core::search::{ItemPrior, SearchPriors, SearchStrategy};
use margins_core::severity::SeverityWeights;
use margins_sim::{ChipSpec, Millivolts};
use margins_trace::MetricsRegistry;
use std::fmt::Write as _;

/// One strategy's campaign, analyzed, with its probe-count telemetry.
#[derive(Debug, Clone)]
pub struct StrategyRun {
    /// The strategy that produced this campaign.
    pub strategy: SearchStrategy,
    /// Voltage steps executed on the machine (the `voltage_steps` metric).
    pub machine_steps: u64,
    /// Steps of the full voltage grid, per (benchmark, core) item.
    pub grid_per_item: u32,
    /// Steps the full grid holds across all (benchmark, core) items.
    pub grid_steps: u64,
    /// The analyzed campaign.
    pub result: CharacterizationResult,
}

/// The study's campaign configuration: the Figure 3/4 reference bounds
/// (945 → 830 mV, crash-stop after 2 all-crash steps) under `strategy`.
#[must_use]
fn study_config(scale: &Scale, strategy: SearchStrategy) -> CampaignConfig {
    CampaignConfig::builder()
        .benchmarks(scale.fig4_benchmarks.iter().copied())
        .cores(scale.fig4_cores.iter().copied())
        .iterations(scale.iterations)
        .start_voltage(Millivolts::new(945))
        .floor_voltage(Millivolts::new(830))
        .crash_stop_steps(2)
        .seed(0xF164)
        .search(strategy)
        .build()
        .expect("search-study configuration is valid")
}

/// Runs one campaign configuration and collects its probe-count metrics.
#[must_use]
fn run_config(
    spec: ChipSpec,
    config: CampaignConfig,
    threads: usize,
    priors: Option<&SearchPriors>,
) -> StrategyRun {
    let strategy = config.search;
    let items = (config.benchmarks.len() * config.cores.len()) as u64;
    let grid_per_item = config.step_count();
    let grid_steps = u64::from(grid_per_item) * items;
    let campaign = Campaign::new(spec, config);
    let mut metrics = MetricsRegistry::new();
    let ctx = ExecContext {
        metrics: Some(&mut metrics),
        priors,
        ..ExecContext::new()
    };
    let outcome = ThreadPoolExecutor::new(threads)
        .and_then(|pool| campaign.run(&pool, ctx))
        .expect("a valid pool runs the campaign");
    StrategyRun {
        strategy,
        machine_steps: metrics.counter("voltage_steps"),
        grid_per_item,
        grid_steps,
        result: analyze(&outcome, &SeverityWeights::paper()),
    }
}

/// Runs one strategy's study campaign.
#[must_use]
fn run_strategy(
    spec: ChipSpec,
    scale: &Scale,
    strategy: SearchStrategy,
    priors: Option<&SearchPriors>,
) -> StrategyRun {
    run_config(spec, study_config(scale, strategy), scale.threads, priors)
}

/// Distills warm-start priors from an exhaustive characterization — the
/// boundary estimate a persisted campaign cache (or the margin predictor)
/// would supply.
#[must_use]
fn priors_from(result: &CharacterizationResult) -> SearchPriors {
    let mut priors = SearchPriors::new();
    for s in &result.summaries {
        let prior = ItemPrior {
            // safe_vmin is the last safe step, so the first abnormal step
            // sits one 5 mV grid step below it.
            vmin_mv: s.safe_vmin.map(|v| v.get().saturating_sub(5)),
            crash_mv: s.highest_crash.map(Millivolts::get),
        };
        priors.insert(&s.program, &s.dataset, s.core, prior);
    }
    priors
}

/// Runs all three strategies; warm-start is seeded from the exhaustive
/// leg's boundaries. The exhaustive run is always first in the result.
#[must_use]
pub fn study(spec: ChipSpec, scale: &Scale) -> Vec<StrategyRun> {
    let exhaustive = run_strategy(spec, scale, SearchStrategy::Exhaustive, None);
    let bisection = run_strategy(spec, scale, SearchStrategy::Bisection, None);
    let priors = priors_from(&exhaustive.result);
    let warm = run_strategy(spec, scale, SearchStrategy::WarmStart, Some(&priors));
    vec![exhaustive, bisection, warm]
}

/// Whether a summary's step verdicts form contiguous regions — Safe above
/// Unsafe above Crash, never interleaved. On a *fully swept* item this is
/// exactly the hypothesis under which adaptive search provably reports the
/// same boundaries as the exhaustive sweep.
#[must_use]
fn contiguous_regions(summary: &SweepSummary) -> bool {
    let mut seen_abnormal = false;
    let mut seen_crash = false;
    for step in &summary.steps {
        match step.region {
            RegionKind::Safe => {
                if seen_abnormal {
                    return false;
                }
            }
            RegionKind::Unsafe => {
                if seen_crash {
                    return false;
                }
                seen_abnormal = true;
            }
            RegionKind::Crash => {
                seen_abnormal = true;
                seen_crash = true;
            }
        }
    }
    true
}

/// The (program, dataset, core) keys of an exhaustive run's items on which
/// the equivalence claim is unconditional: the item was swept over the
/// whole grid (no crash-stop) and its regions are contiguous.
#[must_use]
fn comparable_keys(exhaustive: &StrategyRun) -> Vec<(String, String, usize)> {
    exhaustive
        .result
        .summaries
        .iter()
        .filter(|s| s.steps.len() == exhaustive.grid_per_item as usize && contiguous_regions(s))
        .map(|s| (s.program.clone(), s.dataset.clone(), s.core.index()))
        .collect()
}

/// The (program, core, safe Vmin, highest crash) boundary tuples of a
/// characterization restricted to `keys`, in canonical order.
#[must_use]
fn boundaries(
    result: &CharacterizationResult,
    keys: &[(String, String, usize)],
) -> Vec<(String, usize, Option<u32>, Option<u32>)> {
    result
        .summaries
        .iter()
        .filter(|s| {
            keys.iter()
                .any(|(p, d, c)| *p == s.program && *d == s.dataset && *c == s.core.index())
        })
        .map(|s| {
            (
                s.program.clone(),
                s.core.index(),
                s.safe_vmin.map(Millivolts::get),
                s.highest_crash.map(Millivolts::get),
            )
        })
        .collect()
}

/// The study report: probe counts per strategy and the boundary verdict
/// against the exhaustive sweep on the comparable (fully-swept,
/// contiguous-region) items.
#[must_use]
pub fn report(runs: &[StrategyRun]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Adaptive Vmin search — machine probes vs the exhaustive sweep"
    );
    let base = runs
        .iter()
        .find(|r| r.strategy == SearchStrategy::Exhaustive);
    let keys = base.map(comparable_keys).unwrap_or_default();
    let reference = base.map(|r| boundaries(&r.result, &keys));
    if let Some(b) = base {
        let _ = writeln!(
            out,
            "equivalence domain: {}/{} items fully swept with contiguous regions",
            keys.len(),
            b.result.summaries.len()
        );
    }
    let _ = writeln!(
        out,
        "{:<12}{:>15}{:>12}{:>12}  boundaries",
        "strategy", "machine steps", "grid steps", "% of grid"
    );
    for r in runs {
        let pct = 100.0 * r.machine_steps as f64 / r.grid_steps.max(1) as f64;
        let verdict = match &reference {
            Some(b) if *b == boundaries(&r.result, &keys) => "identical",
            Some(_) => "DIVERGED",
            None => "-",
        };
        let _ = writeln!(
            out,
            "{:<12}{:>15}{:>12}{:>11.1}%  {}",
            r.strategy.name(),
            r.machine_steps,
            r.grid_steps,
            pct,
            verdict
        );
    }
    if let Some(b) = base {
        for r in runs.iter().filter(|r| r.strategy.is_adaptive()) {
            let frac = 100.0 * r.machine_steps as f64 / b.machine_steps.max(1) as f64;
            let _ = writeln!(
                out,
                "{}: {frac:.1}% of the steps the exhaustive sweep visited (target ≤ 40%)",
                r.strategy.name()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use margins_sim::{CoreId, Corner};

    fn tiny() -> Scale {
        Scale {
            iterations: 2,
            threads: 2,
            fig4_benchmarks: vec!["bwaves", "namd"],
            fig4_cores: vec![CoreId::new(0), CoreId::new(4)],
            full_prediction_suite: false,
        }
    }

    #[test]
    fn adaptive_matches_exhaustive_on_contiguous_items_with_fewer_probes() {
        let runs = study(ChipSpec::new(Corner::Ttt, 0), &tiny());
        assert_eq!(runs[0].strategy, SearchStrategy::Exhaustive);
        let keys = comparable_keys(&runs[0]);
        let reference = boundaries(&runs[0].result, &keys);
        for r in &runs[1..] {
            assert_eq!(
                boundaries(&r.result, &keys),
                reference,
                "{} diverged on the contiguous-region items",
                r.strategy
            );
            assert!(
                r.machine_steps < runs[0].machine_steps,
                "{} probed {} steps, exhaustive {}",
                r.strategy,
                r.machine_steps,
                runs[0].machine_steps
            );
        }
        let text = report(&runs);
        assert!(text.contains("identical"));
        assert!(!text.contains("DIVERGED"));
    }

    #[test]
    fn contiguity_accepts_ordered_and_rejects_interleaved_regions() {
        let runs = study(ChipSpec::new(Corner::Ttt, 0), &tiny());
        let exhaustive = &runs[0];
        // Every comparable item really is ordered Safe → Unsafe → Crash.
        for key in comparable_keys(exhaustive) {
            let s = exhaustive
                .result
                .summary(&key.0, &key.1, CoreId::new(key.2 as u8))
                .expect("comparable key resolves");
            assert!(contiguous_regions(s));
        }
    }
}
