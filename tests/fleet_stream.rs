//! Fleet streaming: subscriptions observe, they never perturb.
//!
//! The observability plane's contracts, proven against the in-process
//! [`FleetService`] (the daemon's TCP layer is a thin frame pump over
//! exactly this API):
//!
//! 1. **Replay byte-identity** — a fully-received subscription, its
//!    per-chip payloads re-sealed through `merge_streams`, reproduces the
//!    job's artifact trace byte for byte.
//! 2. **Backpressure with exact accounting** — a slow consumer loses
//!    events to its bounded queue but learns *exactly* how many via the
//!    `lagged` frame, and the campaign outcome is byte-identical with and
//!    without the slow subscriber attached.
//! 3. **Lifecycle** — cancelled jobs emit a terminal event with
//!    partial-results accounting, `status` reports queue position and
//!    progress, and mid-job unsubscribes never affect the job.
//! 4. **Metrics split** — the deterministic counter subset of the
//!    OpenMetrics exposition is identical across same-seed reruns.

use voltmargin::characterize::cache::SharedCampaignCache;
use voltmargin::characterize::search::SearchStrategy;
use voltmargin::fleet::{FleetEvent, FleetService, FleetSpec, JobOutcome};
use voltmargin::sim::Corner;
use voltmargin::trace::{merge_streams, read_jsonl, TraceRecord};

fn spec(corner: Corner, first_serial: u64, chips: u32) -> FleetSpec {
    FleetSpec {
        corner,
        first_serial,
        chips,
        benchmarks: vec!["namd".into()],
        cores: vec![0],
        iterations: 1,
        start_mv: 890,
        floor_mv: 880,
        seed: 0x00DD_BA11,
        search: SearchStrategy::Exhaustive,
    }
}

fn results_of(outcome: Option<JobOutcome>) -> voltmargin::fleet::FleetResults {
    match outcome {
        Some(JobOutcome::Done(r)) => r,
        other => panic!("expected a completed job, got {other:?}"),
    }
}

fn is_terminal(event: &FleetEvent) -> bool {
    matches!(
        event,
        FleetEvent::JobFinished { .. }
            | FleetEvent::JobCancelled { .. }
            | FleetEvent::JobFailed { .. }
    )
}

/// Drains a subscription until its terminal event, collecting everything.
fn collect_until_terminal(
    svc: &FleetService,
    sub: &voltmargin::fleet::Subscription,
) -> Vec<FleetEvent> {
    let mut events = Vec::new();
    'outer: while let Some(batch) = svc.next_events(sub) {
        for event in batch {
            let done = is_terminal(&event);
            events.push(event);
            if done {
                break 'outer;
            }
        }
    }
    events
}

/// The chip indices of a subscription's `chip-finished` events, sorted.
fn finished_chips(events: &[FleetEvent]) -> Vec<u32> {
    let mut chips: Vec<u32> = events
        .iter()
        .filter_map(|e| match e {
            FleetEvent::ChipFinished { chip, .. } => Some(*chip),
            _ => None,
        })
        .collect();
    chips.sort_unstable();
    chips
}

/// Reassembles a job trace from the `chip-finished` payloads of a
/// subscription, in canonical (ascending chip index) order.
fn reassemble(events: &[FleetEvent]) -> String {
    let mut streams: std::collections::BTreeMap<u32, Vec<TraceRecord>> =
        std::collections::BTreeMap::new();
    for event in events {
        if let FleetEvent::ChipFinished { chip, trace, .. } = event {
            let records = read_jsonl(trace).expect("streamed per-chip traces parse");
            streams.insert(*chip, records);
        }
    }
    let merged = merge_streams(streams.values().map(Vec::as_slice));
    let mut out = String::new();
    for record in &merged {
        out.push_str(&record.to_json_line().expect("records encode"));
        out.push('\n');
    }
    out
}

#[test]
fn live_subscription_replay_is_byte_identical_to_the_artifact() {
    let fleet = spec(Corner::Ttt, 300, 4);
    let svc = FleetService::new(2, SharedCampaignCache::new()).expect("valid worker count");
    let (results, events) = svc.run(|| {
        let (job, chips) = svc.submit("lab", &fleet).expect("valid spec");
        assert_eq!(chips, 4);
        let sub = svc
            .subscribe("lab", job, 4096)
            .expect("job owner can subscribe");
        std::thread::scope(|scope| {
            let collector = scope.spawn(|| collect_until_terminal(&svc, &sub));
            let results = results_of(svc.wait("lab", job));
            (results, collector.join().expect("collector thread"))
        })
    });

    // Every event belongs to the watched job and none were dropped.
    assert!(events
        .iter()
        .all(|e| !matches!(e, FleetEvent::Lagged { .. })));
    assert!(matches!(events.first(), Some(FleetEvent::JobQueued { .. })));
    assert!(matches!(
        events.last(),
        Some(FleetEvent::JobFinished { .. })
    ));

    // All four chips reported in, each exactly once.
    assert_eq!(finished_chips(&events), vec![0, 1, 2, 3]);

    // The replay contract: re-sealing the streamed per-chip payloads
    // reproduces the artifact trace byte for byte.
    assert_eq!(reassemble(&events), results.trace);

    // The streamed rollup numbers agree with the merged results.
    let Some(FleetEvent::JobFinished {
        chips: c,
        runs,
        power_cycles,
        ..
    }) = events.last()
    else {
        unreachable!("asserted above");
    };
    assert_eq!(u64::from(*c), 4);
    assert_eq!(*runs, results.runs);
    assert_eq!(*power_cycles, results.power_cycles);
}

#[test]
fn catch_up_subscription_replays_a_finished_job_identically() {
    let fleet = spec(Corner::Tff, 310, 3);
    let svc = FleetService::new(2, SharedCampaignCache::new()).expect("valid worker count");
    let (results, events) = svc.run(|| {
        let (job, _) = svc.submit("lab", &fleet).expect("valid spec");
        let results = results_of(svc.wait("lab", job));
        // Subscribing *after* completion replays the whole job from the
        // retained results — CI never races the scheduler.
        let sub = svc
            .subscribe("lab", job, 4096)
            .expect("finished jobs accept subscribers");
        (results, collect_until_terminal(&svc, &sub))
    });
    assert_eq!(reassemble(&events), results.trace);
    assert!(matches!(
        events.last(),
        Some(FleetEvent::JobFinished { .. })
    ));
}

#[test]
fn mid_job_subscription_reassembles_the_artifact() {
    // One worker runs the chips in order. The subscriber joins once at
    // least one chip has finished: finished chips reach it as catch-up,
    // their payloads encoded on demand from the retained records, and
    // the chips after it as live events.
    let fleet = spec(Corner::Ttt, 400, 8);
    let svc = FleetService::new(1, SharedCampaignCache::new()).expect("valid worker count");
    let (job, _) = svc.submit("lab", &fleet).expect("valid spec");
    let (results, events) = svc.run(|| {
        while svc.status("lab", job).map_or(0, |s| s.done) == 0 {
            std::thread::yield_now();
        }
        let sub = svc.subscribe("lab", job, 4096).expect("subscribe");
        let mut events = svc.try_events(&sub);
        let caught_up = events
            .iter()
            .filter(|e| matches!(e, FleetEvent::ChipFinished { .. }))
            .count();
        assert!(caught_up >= 1, "a finished chip is caught up: {events:?}");
        if !events.iter().any(is_terminal) {
            events.extend(collect_until_terminal(&svc, &sub));
        }
        (results_of(svc.wait("lab", job)), events)
    });

    assert_eq!(
        finished_chips(&events),
        (0..8).collect::<Vec<u32>>(),
        "each chip exactly once"
    );
    assert_eq!(reassemble(&events), results.trace);
}

#[test]
fn slow_consumer_gets_lagged_with_the_exact_drop_count() {
    let fleet = spec(Corner::Ttt, 320, 4);
    let svc = FleetService::new(2, SharedCampaignCache::new()).expect("valid worker count");
    // Both subscriptions open before the workers start, so every event
    // after the subscribe catch-up is offered to both queues.
    let (job, _) = svc.submit("lab", &fleet).expect("valid spec");
    let fast = svc.subscribe("lab", job, 4096).expect("subscribe");
    let slow = svc.subscribe("lab", job, 1).expect("subscribe");
    let (fast_events, slow_events) = svc.run(|| {
        let _ = results_of(svc.wait("lab", job));
        // Neither subscriber drained during the run: the fast queue held
        // everything, the slow queue held one event and counted drops.
        (svc.try_events(&fast), svc.try_events(&slow))
    });

    assert!(fast_events
        .iter()
        .all(|e| !matches!(e, FleetEvent::Lagged { .. })));
    let published = fast_events.len() as u64;

    let Some(FleetEvent::Lagged { dropped, .. }) = slow_events.first() else {
        panic!("a slow consumer's first frame is `lagged`, got {slow_events:?}");
    };
    let kept = (slow_events.len() - 1) as u64;
    assert!(*dropped > 0, "a capacity-1 queue must have dropped events");
    assert_eq!(
        kept + dropped,
        published,
        "drop accounting is exact: kept {kept} + dropped {dropped} must equal {published}"
    );
}

#[test]
fn campaign_outcome_is_byte_identical_with_and_without_a_slow_subscriber() {
    let fleet = spec(Corner::Tss, 330, 3);

    let unobserved = {
        let svc = FleetService::new(2, SharedCampaignCache::new()).expect("valid worker count");
        svc.run(|| {
            let (job, _) = svc.submit("lab", &fleet).expect("valid spec");
            results_of(svc.wait("lab", job))
        })
    };
    let observed = {
        let svc = FleetService::new(2, SharedCampaignCache::new()).expect("valid worker count");
        svc.run(|| {
            let (job, _) = svc.submit("lab", &fleet).expect("valid spec");
            // A deliberately slow consumer: capacity 1, never drained.
            let _sub = svc.subscribe("lab", job, 1).expect("subscribe");
            results_of(svc.wait("lab", job))
        })
    };

    assert_eq!(
        observed.trace, unobserved.trace,
        "observation never perturbs"
    );
    assert_eq!(observed.metrics, unobserved.metrics);
    assert_eq!(observed.runs, unobserved.runs);
    assert_eq!(observed.executed_ops, unobserved.executed_ops);
}

#[test]
fn cancelling_a_queued_job_emits_a_terminal_event_with_accounting() {
    let fleet = spec(Corner::Ttt, 340, 5);
    let svc = FleetService::new(1, SharedCampaignCache::new()).expect("valid worker count");
    // No workers are running: the job stays queued, so the cancel's
    // partial-results accounting is exactly 0 of 5.
    let (job, _) = svc.submit("lab", &fleet).expect("valid spec");
    assert_eq!(svc.cancel("lab", job), Some((0, 5)));

    let sub = svc.subscribe("lab", job, 64).expect("subscribe");
    let events = svc.try_events(&sub);
    assert!(matches!(
        events.last(),
        Some(FleetEvent::JobCancelled {
            done: 0,
            total: 5,
            ..
        })
    ));

    let status = svc.status("lab", job).expect("known job");
    assert_eq!(status.state, "cancelled");
    assert!(matches!(svc.wait("lab", job), Some(JobOutcome::Cancelled)));
}

#[test]
fn status_reports_queue_position_and_progress() {
    let fleet_a = spec(Corner::Ttt, 350, 3);
    let fleet_b = spec(Corner::Ttt, 360, 2);
    let svc = FleetService::new(1, SharedCampaignCache::new()).expect("valid worker count");

    // Workers are not running yet: both jobs sit whole in the queue.
    let (job_a, _) = svc.submit("lab", &fleet_a).expect("valid spec");
    let (job_b, _) = svc.submit("lab", &fleet_b).expect("valid spec");

    let a = svc.status("lab", job_a).expect("known job");
    assert_eq!((a.state, a.queue_position, a.done), ("queued", 0, 0));
    assert!(a.progress.abs() < f64::EPSILON);

    // Job B's first pending unit waits behind all 3 of job A's chips.
    let b = svc.status("lab", job_b).expect("known job");
    assert_eq!((b.state, b.queue_position), ("queued", 3));

    svc.run(|| {
        let _ = results_of(svc.wait("lab", job_a));
        let _ = results_of(svc.wait("lab", job_b));
    });
    let a = svc.status("lab", job_a).expect("known job");
    assert_eq!(
        (a.state, a.queue_position, a.done, a.total),
        ("done", 0, 3, 3)
    );
    assert!((a.progress - 1.0).abs() < f64::EPSILON);
}

#[test]
fn unsubscribing_mid_job_never_affects_the_job() {
    let fleet = spec(Corner::Ttt, 370, 3);
    let svc = FleetService::new(2, SharedCampaignCache::new()).expect("valid worker count");
    let results = svc.run(|| {
        let (job, _) = svc.submit("lab", &fleet).expect("valid spec");
        let sub = svc.subscribe("lab", job, 4096).expect("subscribe");
        // Take one batch (at least the queued catch-up), then vanish —
        // like a watcher whose connection dropped mid-job.
        let first = svc.next_events(&sub).expect("live subscription");
        assert!(!first.is_empty());
        assert!(svc.unsubscribe(&sub));
        assert!(!svc.unsubscribe(&sub), "double unsubscribe is a no-op");
        assert!(svc.next_events(&sub).is_none(), "closed subs yield None");
        results_of(svc.wait("lab", job))
    });
    assert_eq!(results.chips, 3);
    assert!(!results.trace.is_empty());
}

/// The deterministic counter subset of an exposition: every `_total`
/// sample line, which by the counter-vs-gauge contract excludes all
/// wall-clock and observer-dependent state.
fn counter_subset(exposition: &str) -> String {
    exposition
        .lines()
        .filter(|l| l.contains("_total "))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn openmetrics_counter_subset_is_identical_across_same_seed_reruns() {
    let fleet = spec(Corner::Ttt, 380, 3);
    let run = |subscribe: bool| {
        let svc = FleetService::new(2, SharedCampaignCache::new()).expect("valid worker count");
        svc.run(|| {
            let (job, _) = svc.submit("lab", &fleet).expect("valid spec");
            let _sub = subscribe.then(|| svc.subscribe("lab", job, 1).expect("subscribe"));
            let _ = results_of(svc.wait("lab", job));
        });
        svc.openmetrics()
    };
    let first = run(false);
    let second = run(false);
    let observed = run(true);

    assert!(first.ends_with("# EOF\n"), "{first}");
    let counters = counter_subset(&first);
    assert!(
        counters.contains("voltmargin_fleet_jobs_completed_total 1"),
        "{counters}"
    );
    assert!(
        counters.contains("voltmargin_fleet_chips_completed_total 3"),
        "{counters}"
    );
    assert_eq!(
        counters,
        counter_subset(&second),
        "deterministic counters must be rerun-stable"
    );
    assert_eq!(
        counters,
        counter_subset(&observed),
        "subscriber presence must not leak into the counter subset"
    );

    // The observer-dependent tallies are exposed — but as gauges, outside
    // the CI-diffable subset.
    assert!(
        first.contains("voltmargin_fleet_events_enqueued"),
        "{first}"
    );
    assert!(
        first.contains("voltmargin_fleet_subscriber_lag_drops"),
        "{first}"
    );
}

#[test]
fn health_snapshot_tracks_the_job_lifecycle() {
    let fleet = spec(Corner::Ttt, 390, 2);
    let svc = FleetService::new(3, SharedCampaignCache::new()).expect("valid worker count");

    let idle = svc.health();
    assert_eq!((idle.workers, idle.busy, idle.jobs_done), (3, 0, 0));

    let (job, _) = svc.submit("lab", &fleet).expect("valid spec");
    let queued = svc.health();
    assert_eq!((queued.jobs_queued, queued.queued_units), (1, 2));

    svc.run(|| {
        let _ = results_of(svc.wait("lab", job));
    });
    let done = svc.health();
    assert_eq!(
        (
            done.jobs_queued,
            done.jobs_running,
            done.jobs_done,
            done.busy
        ),
        (0, 0, 1, 0)
    );
    assert_eq!(done.subscribers, 0);
}
