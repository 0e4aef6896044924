//! Executor conformance: every [`CampaignExecutor`] drives the one
//! shard-partition → per-item staging → reorder-merge → finalize pipeline,
//! so the entire observability surface — JSONL trace, OpenMetrics
//! exposition, profile rollups, CSV reports — must be **byte-identical**
//! across executors. The suite also pins the failure half of the
//! contract: thread-count validation is a typed error, and an executor
//! that violates the canonical delivery order is rejected instead of
//! silently corrupting a stream.

use voltmargin::characterize::cache::SharedCampaignCache;
use voltmargin::characterize::config::CampaignConfig;
use voltmargin::characterize::exec::{
    CacheHandle, CampaignExecutor, ExecContext, ExecError, ItemOutput, ItemTask, SerialExecutor,
    ThreadPoolExecutor,
};
use voltmargin::characterize::profile::PhaseTallies;
use voltmargin::characterize::regions::analyze;
use voltmargin::characterize::report;
use voltmargin::characterize::runner::Campaign;
use voltmargin::characterize::severity::SeverityWeights;
use voltmargin::sim::{ChipSpec, CoreId, Corner, Millivolts};
use voltmargin::trace::{JsonlSink, MetricsRegistry, Sink};

/// The reference campaign: two benchmarks on two cores, four work items.
fn campaign() -> Campaign {
    campaign_of(&["bwaves", "namd"], &[0, 4])
}

/// One work item: a pool of any size makes a single shard of it.
fn single_item_campaign() -> Campaign {
    campaign_of(&["namd"], &[4])
}

fn campaign_of(benchmarks: &[&str], cores: &[u8]) -> Campaign {
    let cfg = CampaignConfig::builder()
        .benchmarks(benchmarks.iter().copied())
        .cores(cores.iter().copied().map(CoreId::new))
        .iterations(2)
        .start_voltage(Millivolts::new(915))
        .floor_voltage(Millivolts::new(885))
        .seed(0x00DD_BA11)
        .profile(true)
        .build()
        .expect("static campaign config is valid");
    Campaign::new(ChipSpec::new(Corner::Ttt, 0), cfg)
}

/// Runs `campaign` under `exec` with the full observability surface
/// attached: (JSONL trace, OpenMetrics exposition, profile rollups, runs
/// CSV).
fn observe(
    campaign: &Campaign,
    exec: &dyn CampaignExecutor,
) -> (String, String, PhaseTallies, String) {
    let mut jsonl = JsonlSink::new(Vec::new());
    let mut metrics = MetricsRegistry::new();
    let mut tallies = PhaseTallies::new();
    let outcome = {
        let mut sinks: [&mut dyn Sink; 1] = [&mut jsonl];
        campaign
            .run(
                exec,
                ExecContext {
                    sinks: &mut sinks,
                    cache: None,
                    priors: None,
                    metrics: Some(&mut metrics),
                    profile_out: Some(&mut tallies),
                },
            )
            .expect("built-in executors uphold the delivery contract")
    };
    let bytes = jsonl.into_inner().expect("Vec writer cannot fail");
    let trace = String::from_utf8(bytes).expect("JSONL is UTF-8");
    (
        trace,
        metrics.to_openmetrics(),
        tallies,
        report::runs_csv(&outcome),
    )
}

#[test]
fn executors_are_byte_identical_across_the_observability_surface() {
    // The four-item campaign shards under a pool; the one-item campaign
    // makes one shard, which a pool runs on the calling thread.
    for (name, campaign) in [
        ("four-item", campaign()),
        ("single-item", single_item_campaign()),
    ] {
        let reference = observe(&campaign, &SerialExecutor);
        assert!(!reference.0.is_empty(), "traced run must emit records");
        assert!(
            reference.2.executed_ops() > 0,
            "cold campaign executes machine probes"
        );
        for pool in [
            ThreadPoolExecutor::new(1).expect("1 is a valid thread count"),
            ThreadPoolExecutor::new(4).expect("4 is a valid thread count"),
        ] {
            let threads = pool.threads();
            let under = observe(&campaign, &pool);
            assert_eq!(
                reference.0, under.0,
                "{name}: JSONL trace differs under {threads}-thread pool"
            );
            assert_eq!(
                reference.1, under.1,
                "{name}: OpenMetrics exposition differs under {threads}-thread pool"
            );
            assert_eq!(
                reference.2, under.2,
                "{name}: profile rollups differ under {threads}-thread pool"
            );
            assert_eq!(
                reference.3, under.3,
                "{name}: runs CSV differs under {threads}-thread pool"
            );
        }
    }
}

#[test]
fn pool_thread_counts_are_validated_not_panicked_on() {
    assert!(matches!(
        ThreadPoolExecutor::new(0),
        Err(ExecError::ZeroThreads)
    ));
    let absurd = ThreadPoolExecutor::new(usize::MAX);
    assert!(matches!(absurd, Err(ExecError::TooManyThreads { .. })));
    let msg = ThreadPoolExecutor::new(0).unwrap_err().to_string();
    assert!(msg.contains("at least one"), "actionable message: {msg}");
}

/// A deliberately non-conformant executor: delivers items in reverse
/// canonical order.
struct ReversedExecutor;

impl CampaignExecutor for ReversedExecutor {
    fn label(&self) -> &'static str {
        "reversed"
    }

    fn run_items(
        &self,
        task: &ItemTask<'_>,
        deliver: &mut dyn FnMut(ItemOutput),
    ) -> Result<(), ExecError> {
        for item in task.items().iter().rev() {
            deliver(task.run_item(item));
        }
        Ok(())
    }
}

/// A deliberately non-conformant executor: delivers nothing at all.
struct SilentExecutor;

impl CampaignExecutor for SilentExecutor {
    fn label(&self) -> &'static str {
        "silent"
    }

    fn run_items(
        &self,
        _task: &ItemTask<'_>,
        _deliver: &mut dyn FnMut(ItemOutput),
    ) -> Result<(), ExecError> {
        Ok(())
    }
}

#[test]
fn delivery_contract_violations_are_typed_errors() {
    let err = campaign()
        .run(&ReversedExecutor, ExecContext::new())
        .expect_err("reverse delivery must be rejected");
    assert!(
        matches!(
            err,
            ExecError::OutOfOrderDelivery {
                expected: 0,
                delivered: 3
            }
        ),
        "{err}"
    );

    let err = campaign()
        .run(&SilentExecutor, ExecContext::new())
        .expect_err("dropped items must be rejected");
    assert!(
        matches!(
            err,
            ExecError::IncompleteDelivery {
                delivered: 0,
                expected: 4
            }
        ),
        "{err}"
    );
}

#[test]
fn shared_cache_serves_concurrent_campaigns_and_saves_deterministically() {
    // Two identical campaigns race against one shared store; each runs
    // from its own immutable snapshot, appends what it executed, and
    // publishes at the end. However the appends interleave, the published
    // store must serialize exactly like the cache an owned, serial
    // campaign would have produced.
    let shared = SharedCampaignCache::new();
    let pool = ThreadPoolExecutor::new(2).expect("2 is a valid thread count");
    std::thread::scope(|s| {
        for _ in 0..2 {
            let shared = &shared;
            let pool = &pool;
            s.spawn(move || {
                campaign()
                    .run(
                        pool,
                        ExecContext {
                            cache: Some(CacheHandle::Shared(shared)),
                            ..ExecContext::new()
                        },
                    )
                    .expect("built-in executors uphold the delivery contract");
            });
        }
    });

    let mut owned = voltmargin::characterize::cache::CampaignCache::new();
    campaign()
        .run(
            &SerialExecutor,
            ExecContext {
                cache: Some(CacheHandle::Owned(&mut owned)),
                ..ExecContext::new()
            },
        )
        .expect("built-in executors uphold the delivery contract");
    assert!(!owned.is_empty(), "cold campaign populates its cache");
    assert_eq!(
        shared.to_jsonl(),
        owned.to_jsonl(),
        "shared store must serialize independently of append interleaving"
    );

    // And the on-disk artifact is the same bytes as the serialization.
    let path = std::env::temp_dir().join(format!("voltmargin-shared-{}.jsonl", std::process::id()));
    shared.save(&path).expect("cache saves");
    assert_eq!(
        std::fs::read_to_string(&path).expect("cache file reads"),
        owned.to_jsonl()
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn fully_warm_shared_cache_executes_zero_machine_probes() {
    let shared = SharedCampaignCache::new();
    campaign()
        .run(
            &SerialExecutor,
            ExecContext {
                cache: Some(CacheHandle::Shared(&shared)),
                ..ExecContext::new()
            },
        )
        .expect("built-in executors uphold the delivery contract");

    let mut tallies = PhaseTallies::new();
    let warm = campaign()
        .run(
            &ThreadPoolExecutor::new(4).expect("4 is a valid thread count"),
            ExecContext {
                cache: Some(CacheHandle::Shared(&shared)),
                profile_out: Some(&mut tallies),
                ..ExecContext::new()
            },
        )
        .expect("built-in executors uphold the delivery contract");
    assert_eq!(
        tallies.executed_ops(),
        0,
        "a fully warm shared cache must replay without machine probes"
    );

    // Replay is exact: outcome and analysis match a cold execution.
    let cold = campaign()
        .run(&SerialExecutor, ExecContext::new())
        .expect("built-in executors uphold the delivery contract");
    assert_eq!(report::runs_csv(&cold), report::runs_csv(&warm));
    let weights = SeverityWeights::paper();
    assert_eq!(
        report::regions_csv(&analyze(&cold, &weights)),
        report::regions_csv(&analyze(&warm, &weights))
    );
}
