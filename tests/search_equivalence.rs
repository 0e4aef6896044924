//! Conformance suite for the adaptive Vmin search engine: bisection and
//! warm-start campaigns must report the same characterization as the
//! exhaustive sweep, serial and sharded adaptive executions must be
//! indistinguishable, and cached reruns must replay the outcome exactly.
//!
//! The equivalence claim is scoped by the paper's §3 region model: on
//! every item whose full-grid step verdicts form contiguous regions (Safe
//! above Unsafe above Crash — the regions the paper's Figure 4 draws), an
//! adaptive search provably reports byte-identical boundaries, severity
//! and region classifications. Each test derives that domain in-process
//! from the exhaustive sweep itself, so the suite is robust to the exact
//! fault realizations of the environment it runs in: items where the
//! sampled verdicts violate contiguity (possible at low iteration counts
//! right at the stochastic boundary) carry no equivalence promise and are
//! excluded, and the suite asserts the domain is never empty.

use voltmargin::characterize::cache::CampaignCache;
use voltmargin::characterize::classify::ClassifiedRun;
use voltmargin::characterize::config::CampaignConfig;
use voltmargin::characterize::exec::{
    CacheHandle, CampaignExecutor, ExecContext, SerialExecutor, ThreadPoolExecutor,
};
use voltmargin::characterize::regions::{analyze, RegionKind, SweepSummary};
use voltmargin::characterize::runner::{Campaign, CampaignOutcome};
use voltmargin::characterize::search::{ItemPrior, SearchPriors, SearchStrategy};
use voltmargin::characterize::severity::SeverityWeights;
use voltmargin::sim::{ChipSpec, CoreId, Corner, Millivolts};
use voltmargin::trace::{MemorySink, MetricsRegistry, Sink};

/// Golden fixture set: one sensitive and one robust core on the typical
/// chip, plus one core each on the fast and slow corners.
const FIXTURES: [(Corner, u64, &str, u8); 4] = [
    (Corner::Ttt, 0, "bwaves", 0),
    (Corner::Ttt, 0, "namd", 4),
    (Corner::Tff, 1, "mcf", 2),
    (Corner::Tss, 2, "milc", 6),
];

/// Runs one single-item campaign over the full 930 → 850 mV grid (the
/// crash-stop is disabled so the exhaustive leg reveals every verdict)
/// and returns the outcome plus the machine-executed voltage steps.
fn run_fixture(
    spec: ChipSpec,
    bench: &str,
    core: u8,
    strategy: SearchStrategy,
    priors: Option<&SearchPriors>,
) -> (CampaignOutcome, u64) {
    let config = CampaignConfig::builder()
        .benchmarks([bench])
        .cores([CoreId::new(core)])
        .iterations(3)
        .start_voltage(Millivolts::new(930))
        .floor_voltage(Millivolts::new(850))
        .crash_stop_steps(99)
        .seed(0x5EA7C4)
        .search(strategy)
        .build()
        .expect("fixture configuration is valid");
    let campaign = Campaign::new(spec, config);
    let mut metrics = MetricsRegistry::new();
    let ctx = ExecContext {
        metrics: Some(&mut metrics),
        priors,
        ..ExecContext::new()
    };
    let outcome = campaign
        .run(&ThreadPoolExecutor::new(2).expect("valid pool size"), ctx)
        .expect("built-in executors uphold the delivery contract");
    (outcome, metrics.counter("voltage_steps"))
}

/// The classified runs of `outcome`'s (single) item at swept voltage `mv`.
fn runs_at(outcome: &CampaignOutcome, mv: u32) -> Vec<&ClassifiedRun> {
    outcome
        .runs
        .iter()
        .filter(|run| run.swept_mv(outcome.config.rail).get() == mv)
        .collect()
}

/// Whether a summary's step verdicts form contiguous regions — the
/// hypothesis under which adaptive search is provably exact.
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

/// The warm-start prior a cache or predictor would derive from an
/// exhaustive characterization of the same item.
fn prior_from(summary: &SweepSummary) -> SearchPriors {
    let mut priors = SearchPriors::new();
    priors.insert(
        &summary.program,
        &summary.dataset,
        summary.core,
        ItemPrior {
            vmin_mv: summary.safe_vmin.map(|v| v.get().saturating_sub(5)),
            crash_mv: summary.highest_crash.map(Millivolts::get),
        },
    );
    priors
}

#[test]
fn bisection_and_warm_start_match_exhaustive_on_contiguous_items() {
    let mut comparable = 0usize;
    for (corner, serial, bench, core) in FIXTURES {
        let spec = ChipSpec::new(corner, serial);
        let (ex_out, ex_steps) = run_fixture(spec, bench, core, SearchStrategy::Exhaustive, None);
        let exhaustive = analyze(&ex_out, &SeverityWeights::paper());
        let reference = &exhaustive.summaries[0];
        let full_grid = reference.steps.len() == ex_out.config.step_count() as usize;
        if !(full_grid && contiguous_regions(reference)) {
            continue;
        }
        comparable += 1;

        let priors = prior_from(reference);
        let legs = [
            (SearchStrategy::Bisection, None),
            (SearchStrategy::WarmStart, Some(&priors)),
        ];
        for (strategy, priors) in legs {
            let (out, steps) = run_fixture(spec, bench, core, strategy, priors);
            let adaptive = analyze(&out, &SeverityWeights::paper());
            let summary = &adaptive.summaries[0];
            assert_eq!(
                summary.safe_vmin, reference.safe_vmin,
                "{strategy} Vmin diverged on {bench} core{core} ({corner:?})"
            );
            assert_eq!(
                summary.highest_crash, reference.highest_crash,
                "{strategy} crash boundary diverged on {bench} core{core}"
            );
            // Every step the adaptive search probed must carry the exact
            // per-iteration effects, severity and region classification
            // of the exhaustive sweep, and the exact runs behind them
            // (energy, runtime, CE/UE counts included). The item's board
            // is reinitialized before each probe, so the same grid point
            // yields the same runs whatever the board ran before it.
            for step in &summary.steps {
                let expected = reference
                    .step(Millivolts::new(step.mv))
                    .expect("adaptive searches probe grid steps only");
                assert_eq!(step, expected, "{strategy} at {}mV", step.mv);
                assert_eq!(
                    runs_at(&out, step.mv),
                    runs_at(&ex_out, step.mv),
                    "{strategy} runs at {}mV",
                    step.mv
                );
            }
            assert_eq!(
                out.goldens, ex_out.goldens,
                "golden digests must not depend on the strategy"
            );
            assert!(
                steps < ex_steps,
                "{strategy} probed {steps} steps, exhaustive {ex_steps}"
            );
        }
    }
    assert!(
        comparable >= 1,
        "no fixture produced a fully-swept contiguous-region item"
    );
}

#[test]
fn serial_and_sharded_adaptive_campaigns_are_identical() {
    let run = |exec: &dyn CampaignExecutor| {
        let config = CampaignConfig::builder()
            .benchmarks(["bwaves", "namd", "mcf", "milc"])
            .cores([CoreId::new(0), CoreId::new(4)])
            .iterations(2)
            .start_voltage(Millivolts::new(915))
            .floor_voltage(Millivolts::new(885))
            .seed(11)
            .search(SearchStrategy::Bisection)
            .build()
            .expect("valid configuration");
        let campaign = Campaign::new(ChipSpec::new(Corner::Ttt, 0), config);
        let mut memory = MemorySink::new();
        let mut sinks: Vec<&mut dyn Sink> = vec![&mut memory];
        let ctx = ExecContext {
            sinks: &mut sinks,
            ..ExecContext::new()
        };
        let outcome = campaign
            .run(exec, ctx)
            .expect("built-in executors uphold the delivery contract");
        (outcome, memory.records)
    };
    let (serial, serial_records) = run(&SerialExecutor);
    let (sharded, sharded_records) = run(&ThreadPoolExecutor::new(4).expect("valid pool size"));

    assert_eq!(serial.runs, sharded.runs);
    assert_eq!(serial.goldens, sharded.goldens);
    assert_eq!(serial.watchdog_power_cycles, sharded.watchdog_power_cycles);
    assert_eq!(
        serial_records, sharded_records,
        "adaptive trace streams must not depend on sharding"
    );
    // When the serializer is available, the JSONL rendering is
    // byte-identical too (the stream carries its own seq/clock stamps).
    let render = |records: &[voltmargin::trace::TraceRecord]| {
        records
            .iter()
            .map(voltmargin::trace::TraceRecord::to_json_line)
            .collect::<Result<Vec<String>, _>>()
    };
    if let (Ok(a), Ok(b)) = (render(&serial_records), render(&sharded_records)) {
        assert_eq!(a, b, "JSONL streams must be byte-identical");
    }
}

#[test]
fn adaptive_search_visits_at_most_40_percent_of_the_reference_grid() {
    let reference_config = |strategy: SearchStrategy| {
        CampaignConfig::builder()
            .benchmarks(voltmargin::workloads::suite::FIGURE4_NAMES.iter().copied())
            .cores(CoreId::all())
            .iterations(2)
            .start_voltage(Millivolts::new(945))
            .floor_voltage(Millivolts::new(830))
            .crash_stop_steps(2)
            .seed(0xF164)
            .search(strategy)
            .build()
            .expect("reference configuration is valid")
    };
    let run = |strategy: SearchStrategy, priors: Option<&SearchPriors>| {
        let campaign = Campaign::new(ChipSpec::new(Corner::Ttt, 0), reference_config(strategy));
        let mut metrics = MetricsRegistry::new();
        let ctx = ExecContext {
            metrics: Some(&mut metrics),
            priors,
            ..ExecContext::new()
        };
        let outcome = campaign
            .run(&ThreadPoolExecutor::new(8).expect("valid pool size"), ctx)
            .expect("built-in executors uphold the delivery contract");
        (outcome, metrics.counter("voltage_steps"))
    };

    let (ex_out, exhaustive_steps) = run(SearchStrategy::Exhaustive, None);
    let (_, bisection_steps) = run(SearchStrategy::Bisection, None);
    let mut priors = SearchPriors::new();
    for s in &analyze(&ex_out, &SeverityWeights::paper()).summaries {
        priors.insert(
            &s.program,
            &s.dataset,
            s.core,
            ItemPrior {
                vmin_mv: s.safe_vmin.map(|v| v.get().saturating_sub(5)),
                crash_mv: s.highest_crash.map(Millivolts::get),
            },
        );
    }
    let (_, warm_steps) = run(SearchStrategy::WarmStart, Some(&priors));

    assert!(exhaustive_steps > 0);
    assert!(
        bisection_steps * 100 <= exhaustive_steps * 40,
        "bisection visited {bisection_steps} of the exhaustive sweep's {exhaustive_steps} steps"
    );
    assert!(
        warm_steps * 100 <= exhaustive_steps * 40,
        "warm-start visited {warm_steps} of the exhaustive sweep's {exhaustive_steps} steps"
    );
    assert!(warm_steps <= bisection_steps);
}

#[test]
fn cached_rerun_reports_full_hits_and_identical_outcome() {
    let config = || {
        CampaignConfig::builder()
            .benchmarks(["bwaves", "namd"])
            .cores([CoreId::new(0), CoreId::new(4)])
            .iterations(2)
            .start_voltage(Millivolts::new(915))
            .floor_voltage(Millivolts::new(885))
            .seed(7)
            .search(SearchStrategy::Bisection)
            .build()
            .expect("valid configuration")
    };
    let mut cache = CampaignCache::new();

    let run = |cache: &mut CampaignCache| {
        let campaign = Campaign::new(ChipSpec::new(Corner::Ttt, 0), config());
        let mut metrics = MetricsRegistry::new();
        let ctx = ExecContext {
            cache: Some(CacheHandle::Owned(cache)),
            metrics: Some(&mut metrics),
            ..ExecContext::new()
        };
        let outcome = campaign
            .run(&ThreadPoolExecutor::new(2).expect("valid pool size"), ctx)
            .expect("built-in executors uphold the delivery contract");
        (outcome, metrics)
    };

    let (cold, cold_metrics) = run(&mut cache);
    assert!(cold_metrics.counter("campaign_cache_misses") > 0);
    assert!(!cache.is_empty());

    let (warm, warm_metrics) = run(&mut cache);
    assert_eq!(warm.runs, cold.runs);
    assert_eq!(warm.goldens, cold.goldens);
    assert_eq!(warm.watchdog_power_cycles, cold.watchdog_power_cycles);
    assert_eq!(
        warm_metrics.counter("campaign_cache_misses"),
        0,
        "a warmed cache must answer every probe"
    );
    assert!(warm_metrics.counter("campaign_cache_hits") > 0);
    assert_eq!(
        warm_metrics.counter("voltage_steps"),
        0,
        "a fully-cached rerun must not execute any machine probe"
    );
}
