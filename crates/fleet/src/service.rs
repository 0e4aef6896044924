//! The fleet scheduler: jobs, fair per-client queues, and the worker pool.
//!
//! A [`FleetService`] multiplexes characterization jobs from many clients
//! onto a bounded pool of worker threads. Scheduling is *fair FIFO per
//! client*: each client owns a FIFO queue of chip units, and workers deal
//! one unit per client in round-robin order, so a client submitting a
//! thousand-chip fleet cannot starve a client submitting three chips.
//!
//! Determinism is preserved by construction, not by scheduling luck:
//!
//! * every chip runs the stock [`Campaign::run`] pipeline, staging its
//!   sealed records in a private per-chip buffer;
//! * a job's merged stream is produced only after the whole job completes,
//!   by re-sealing the per-chip streams in canonical chip order
//!   ([`merge_streams`]) — which worker finished first never shows;
//! * the shared campaign cache keys entries by chip identity, so within a
//!   cold pass over distinct chips no lookup can observe a sibling's
//!   concurrent progress, and a warm pass replays every probe.
//!
//! Per-client isolation falls out of the job structure: results live in a
//! per-job vector indexed by canonical chip position, so one client's
//! records can never interleave into another client's stream.

use crate::proto::{FleetEvent, FleetSpec, HealthSnapshot, SpecError};
use margins_core::cache::SharedCampaignCache;
use margins_core::config::CampaignConfig;
use margins_core::exec::{CacheHandle, ExecContext, ExecError, ThreadPoolExecutor};
use margins_core::profile::PhaseTallies;
use margins_core::runner::Campaign;
use margins_sim::ChipSpec;
use margins_trace::vmin::{binding_vmin, SweepSteps};
use margins_trace::{merge_streams, MemorySink, MetricsRegistry, Sink, TraceEvent, TraceRecord};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

/// A job identifier, unique within one service instance.
type JobId = u64;

/// Default bound on a subscriber's event queue when the caller does not
/// pick one.
pub(crate) const DEFAULT_SUBSCRIBER_QUEUE: usize = 1024;

/// A job's progress, as reported to status requests.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// `"queued"`, `"running"`, `"done"`, `"failed"` or `"cancelled"`.
    pub state: &'static str,
    /// Chips completed.
    pub done: u32,
    /// Chips total.
    pub total: u32,
    /// Chip units ahead of this job's first pending unit in its client's
    /// FIFO queue (0 when nothing of the job is queued).
    pub queue_position: u32,
    /// Completion fraction, `done / total`.
    pub progress: f64,
}

/// A completed job's merged deterministic outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResults {
    /// Chips characterized.
    pub chips: u32,
    /// Classified runs over the whole fleet.
    pub runs: u64,
    /// Watchdog power cycles over the whole fleet.
    pub power_cycles: u64,
    /// Kernel ops executed on simulated boards over the whole fleet —
    /// 0 when every probe was answered from the shared cache.
    pub executed_ops: u64,
    /// The merged margins-trace JSONL stream, canonical chip order.
    pub trace: String,
    /// The OpenMetrics exposition of the merged stream.
    pub metrics: String,
}

/// How a waited-on job ended.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// Every chip completed; the merged outputs.
    Done(FleetResults),
    /// The job was cancelled before completing.
    Cancelled,
    /// A campaign failed with a typed executor error.
    Failed(ExecError),
}

/// One chip's buffered campaign outputs, index-aligned with the job's
/// canonical chip list. Retained for the life of the job (not consumed by
/// the merge) so late subscribers can be caught up from it.
struct ChipOutcome {
    chip_id: String,
    records: Vec<TraceRecord>,
    /// The chip's own sealed JSONL stream (`records`, one line each),
    /// encoded on first use: only `chip-finished` events carry it.
    trace: OnceLock<String>,
    tallies: PhaseTallies,
    runs: u64,
    power_cycles: u32,
    /// Binding Vmin over the chip's sweeps; `None` when even the highest
    /// probed step misbehaved (censored).
    vmin_mv: Option<u32>,
    severity_sum: f64,
    cache_hits: u64,
    cache_lookups: u64,
}

impl ChipOutcome {
    /// The chip's sealed JSONL stream, encoded on the first call.
    fn trace(&self) -> &str {
        self.trace.get_or_init(|| {
            let mut trace = String::new();
            for record in &self.records {
                if record.write_json_line(&mut trace).is_ok() {
                    trace.push('\n');
                }
            }
            trace
        })
    }
}

/// One schedulable unit: chip `chip` of job `job`.
#[derive(Debug, Clone, Copy)]
struct Unit {
    job: JobId,
    chip: usize,
}

struct Job {
    client: String,
    chips: Vec<ChipSpec>,
    config: CampaignConfig,
    results: Vec<Option<ChipOutcome>>,
    completed: u32,
    dispatched: u32,
    /// Whether the first chip was ever dispatched (drives the
    /// `job-started` event, including its catch-up replay).
    started: bool,
    cancelled: bool,
    failed: Option<ExecError>,
    merged: Option<FleetResults>,
}

impl Job {
    fn total(&self) -> u32 {
        self.chips.len() as u32
    }

    fn finished(&self) -> bool {
        self.cancelled || self.failed.is_some() || self.completed == self.total()
    }
}

/// One live event subscription: a bounded queue the scheduler pushes
/// into and the subscriber's pump drains. When the queue is full the
/// scheduler *counts* the drop and moves on — it never blocks — and the
/// next drain is prefixed with a `lagged` frame carrying the exact count.
struct SubState {
    job: JobId,
    capacity: usize,
    queue: VecDeque<FleetEvent>,
    dropped: u64,
}

/// Monotonic fleet-level counters. `deterministic` ones depend only on
/// the sequence of submitted specs (CI diffs them across same-seed
/// reruns); the subscriber-driven ones vary with observer behaviour and
/// are exposed as gauges.
#[derive(Default)]
struct FleetCounters {
    jobs_submitted: u64,
    jobs_completed: u64,
    jobs_cancelled: u64,
    jobs_failed: u64,
    chips_completed: u64,
    /// Counters replayed from every completed chip's record stream
    /// (runs, probes, cache hits/misses, …), keyed by registry name.
    stream: BTreeMap<String, u64>,
    /// Events enqueued to subscriber queues (observer-dependent).
    events_enqueued: u64,
    /// Events dropped on full subscriber queues (observer-dependent).
    lag_drops: u64,
}

#[derive(Default)]
struct SchedState {
    next_job: JobId,
    jobs: BTreeMap<JobId, Job>,
    /// Per-client FIFO queues of pending units.
    queues: BTreeMap<String, VecDeque<Unit>>,
    /// Clients in admission order — the round-robin ring.
    ring: Vec<String>,
    /// Next ring position to serve.
    cursor: usize,
    /// Workers currently characterizing a chip.
    busy: u32,
    /// Live subscriptions by id.
    subs: BTreeMap<u64, SubState>,
    next_sub: u64,
    counters: FleetCounters,
    stopping: bool,
}

impl SchedState {
    /// Pops the next unit fairly: one unit per client, round-robin over
    /// the admission ring, FIFO within each client.
    fn next_unit(&mut self) -> Option<Unit> {
        if self.ring.is_empty() {
            return None;
        }
        for probe in 0..self.ring.len() {
            let at = (self.cursor + probe) % self.ring.len();
            if let Some(queue) = self.queues.get_mut(&self.ring[at]) {
                if let Some(unit) = queue.pop_front() {
                    self.cursor = (at + 1) % self.ring.len();
                    return Some(unit);
                }
            }
        }
        None
    }

    /// Whether `job` has a live subscription.
    fn watched(&self, job: JobId) -> bool {
        self.subs.values().any(|sub| sub.job == job)
    }

    /// Pushes `event` to every live subscription of its job, counting —
    /// never blocking on — full queues. Returns whether any queue grew
    /// (i.e. whether waiters need a wake-up).
    fn publish(&mut self, event: &FleetEvent) -> bool {
        let Some(job) = event.job() else {
            return false;
        };
        let SchedState { subs, counters, .. } = self;
        let mut delivered = false;
        for sub in subs.values_mut() {
            if sub.job != job {
                continue;
            }
            if sub.queue.len() >= sub.capacity {
                sub.dropped += 1;
                counters.lag_drops += 1;
            } else {
                sub.queue.push_back(event.clone());
                counters.events_enqueued += 1;
                delivered = true;
            }
        }
        delivered
    }
}

/// A handle to one live event subscription, returned by
/// [`FleetService::subscribe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Subscription {
    id: u64,
}

/// The fleet characterization service. See the module docs for the
/// scheduling and determinism contract.
pub struct FleetService {
    workers: usize,
    executor: ThreadPoolExecutor,
    cache: SharedCampaignCache,
    state: Mutex<SchedState>,
    /// Signalled when a unit is enqueued or the service stops.
    work: Condvar,
    /// Signalled when a job finishes, is cancelled, or fails.
    done: Condvar,
    /// Signalled when a subscriber queue grows, a subscription closes,
    /// or the service stops.
    events: Condvar,
}

impl FleetService {
    /// A service with `workers` scheduler workers sharing `cache`.
    ///
    /// Worker validation reuses the executor contract: `0` is
    /// [`ExecError::ZeroThreads`], counts above
    /// [`ThreadPoolExecutor::MAX_THREADS`] are
    /// [`ExecError::TooManyThreads`].
    ///
    /// # Errors
    ///
    /// [`ExecError`] for an invalid worker count.
    pub fn new(workers: usize, cache: SharedCampaignCache) -> Result<FleetService, ExecError> {
        let executor = ThreadPoolExecutor::new(workers)?;
        Ok(FleetService {
            workers,
            executor,
            cache,
            state: Mutex::new(SchedState::default()),
            work: Condvar::new(),
            done: Condvar::new(),
            events: Condvar::new(),
        })
    }

    /// The shared campaign cache all jobs read and feed.
    #[must_use]
    pub fn cache(&self) -> &SharedCampaignCache {
        &self.cache
    }

    /// Locks the scheduler state, recovering from poisoning: state is
    /// only mutated in short sections that cannot unwind halfway, so a
    /// poisoned lock still holds a consistent value.
    fn lock_state(&self) -> MutexGuard<'_, SchedState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs `body` with the worker pool live, then stops the pool.
    ///
    /// Workers are scoped to this call: they start before `body` runs and
    /// are joined before it returns. When `body` returns, in-flight chips
    /// finish but queued units are abandoned — callers that need results
    /// must [`FleetService::wait`] for them inside `body`.
    pub fn run<R>(&self, body: impl FnOnce() -> R) -> R {
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(|| self.worker_loop());
            }
            let out = body();
            {
                let mut state = self.lock_state();
                state.stopping = true;
            }
            self.work.notify_all();
            self.events.notify_all();
            out
        })
    }

    /// Submits a fleet for `client`; returns the job id and chip count.
    ///
    /// # Errors
    ///
    /// [`SpecError`] when the spec does not validate into a campaign.
    pub fn submit(&self, client: &str, spec: &FleetSpec) -> Result<(JobId, u32), SpecError> {
        let config = spec.campaign_config()?;
        let chips = spec.chip_specs();
        let total = chips.len() as u32;
        let job_id = {
            let mut state = self.lock_state();
            let job_id = state.next_job;
            state.next_job += 1;
            let results = chips.iter().map(|_| None).collect();
            state.jobs.insert(
                job_id,
                Job {
                    client: client.to_owned(),
                    chips,
                    config,
                    results,
                    completed: 0,
                    dispatched: 0,
                    started: false,
                    cancelled: false,
                    failed: None,
                    merged: None,
                },
            );
            state.counters.jobs_submitted += 1;
            if !state.ring.iter().any(|c| c == client) {
                state.ring.push(client.to_owned());
            }
            let units = (0..total as usize).map(|chip| Unit { job: job_id, chip });
            state
                .queues
                .entry(client.to_owned())
                .or_default()
                .extend(units);
            job_id
        };
        self.work.notify_all();
        Ok((job_id, total))
    }

    /// A job's progress; `None` for an unknown (client, job) pair.
    #[must_use]
    pub fn status(&self, client: &str, job: JobId) -> Option<JobStatus> {
        let state = self.lock_state();
        let j = state.jobs.get(&job).filter(|j| j.client == client)?;
        let label = if j.failed.is_some() {
            "failed"
        } else if j.cancelled {
            "cancelled"
        } else if j.completed == j.total() {
            "done"
        } else if j.dispatched > 0 {
            "running"
        } else {
            "queued"
        };
        let (done, total) = (j.completed, j.total());
        let queue_position = state
            .queues
            .get(client)
            .and_then(|q| q.iter().position(|u| u.job == job))
            .map_or(0, |p| p as u32);
        Some(JobStatus {
            state: label,
            done,
            total,
            queue_position,
            // total ≥ 1: zero-chip specs are rejected at submit.
            progress: f64::from(done) / f64::from(total),
        })
    }

    /// Cancels a job's queued chips; in-flight chips finish and are
    /// retained with the job as partial results. Returns `false` for an
    /// unknown pair. A *newly* cancelled job emits a terminal
    /// `job-cancelled` event with partial-results accounting.
    pub fn cancel(&self, client: &str, job: JobId) -> bool {
        let mut state = self.lock_state();
        let Some(j) = state.jobs.get_mut(&job).filter(|j| j.client == client) else {
            return false;
        };
        let newly = !j.finished();
        if newly {
            j.cancelled = true;
        }
        let cancelled = j.cancelled;
        let (done, total) = (j.completed, j.total());
        if let Some(queue) = state.queues.get_mut(client) {
            queue.retain(|u| u.job != job);
        }
        if newly {
            state.counters.jobs_cancelled += 1;
            if state.publish(&FleetEvent::JobCancelled { job, done, total }) {
                self.events.notify_all();
            }
        }
        drop(state);
        self.done.notify_all();
        cancelled
    }

    /// The chips completed / total accounting of a job, for cancel
    /// responses; `None` for an unknown (client, job) pair.
    #[must_use]
    pub fn accounting(&self, client: &str, job: JobId) -> Option<(u32, u32)> {
        let state = self.lock_state();
        let j = state.jobs.get(&job).filter(|j| j.client == client)?;
        Some((j.completed, j.total()))
    }

    /// Blocks until `job` finishes and returns how it ended; `None` for
    /// an unknown (client, job) pair.
    ///
    /// The merged outputs are computed once, on the first wait, and
    /// memoized for subsequent calls.
    #[must_use]
    pub fn wait(&self, client: &str, job: JobId) -> Option<JobOutcome> {
        let mut state = self.lock_state();
        loop {
            let j = state.jobs.get(&job).filter(|j| j.client == client)?;
            if j.cancelled {
                return Some(JobOutcome::Cancelled);
            }
            if let Some(e) = j.failed {
                return Some(JobOutcome::Failed(e));
            }
            if j.completed == j.total() {
                break;
            }
            state = self
                .done
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        // Merge outside the hot path but under the lock: the merge is a
        // pure function of the per-chip results, which stay retained with
        // the job so late subscribers can be caught up from them.
        let j = state.jobs.get_mut(&job)?;
        if j.merged.is_none() {
            let merged = {
                let outcomes: Vec<&ChipOutcome> = j
                    .results
                    .iter()
                    .map(|slot| slot.as_ref().expect("completed job has every chip result"))
                    .collect();
                merge_outcomes(j.total(), &outcomes)
            };
            j.merged = Some(merged);
        }
        j.merged.clone().map(JobOutcome::Done)
    }

    /// Opens a live event subscription on `(client, job)` with a bounded
    /// queue of `capacity` events; `None` for an unknown pair.
    ///
    /// The subscriber is first *caught up* from the job's retained state —
    /// `job-queued`, `job-started` if dispatched, one `chip-finished` per
    /// already-completed chip in ascending chip order, and the terminal
    /// event if the job already ended — so subscribing at any point yields
    /// a complete job history. Catch-up frames are enqueued in full; the
    /// capacity bounds *live* growth from then on.
    #[must_use]
    pub fn subscribe(&self, client: &str, job: JobId, capacity: usize) -> Option<Subscription> {
        let capacity = capacity.max(1);
        let mut state = self.lock_state();
        let j = state.jobs.get(&job).filter(|j| j.client == client)?;
        let mut backlog = VecDeque::new();
        backlog.push_back(FleetEvent::JobQueued {
            job,
            client: client.to_owned(),
            chips: j.total(),
        });
        if j.started {
            backlog.push_back(FleetEvent::JobStarted { job });
        }
        for (chip, slot) in j.results.iter().enumerate() {
            if let Some(outcome) = slot {
                backlog.push_back(chip_finished_event(job, chip as u32, outcome));
            }
        }
        if let Some(e) = &j.failed {
            backlog.push_back(FleetEvent::JobFailed {
                job,
                message: e.to_string(),
            });
        } else if j.cancelled {
            backlog.push_back(FleetEvent::JobCancelled {
                job,
                done: j.completed,
                total: j.total(),
            });
        } else if j.completed == j.total() {
            backlog.push_back(job_finished_event(job, j));
        }
        state.counters.events_enqueued += backlog.len() as u64;
        let id = state.next_sub;
        state.next_sub += 1;
        state.subs.insert(
            id,
            SubState {
                job,
                capacity,
                queue: backlog,
                dropped: 0,
            },
        );
        drop(state);
        self.events.notify_all();
        Some(Subscription { id })
    }

    /// Closes a subscription; pending undelivered events are discarded
    /// and any blocked [`FleetService::next_events`] call returns `None`.
    /// Returns `false` when the subscription was already closed.
    pub fn unsubscribe(&self, sub: &Subscription) -> bool {
        let removed = {
            let mut state = self.lock_state();
            state.subs.remove(&sub.id).is_some()
        };
        if removed {
            self.events.notify_all();
        }
        removed
    }

    /// Blocks until the subscription has events, then drains them all.
    /// Returns `None` once the subscription is closed (unsubscribed or
    /// service stopping) and drained.
    ///
    /// When events were dropped on the bounded queue since the last
    /// drain, the batch is prefixed with a [`FleetEvent::Lagged`] frame
    /// carrying the exact drop count.
    #[must_use]
    pub fn next_events(&self, sub: &Subscription) -> Option<Vec<FleetEvent>> {
        let mut state = self.lock_state();
        loop {
            let stopping = state.stopping;
            let s = state.subs.get_mut(&sub.id)?;
            if !s.queue.is_empty() || s.dropped > 0 {
                return Some(drain_sub(s));
            }
            if stopping {
                state.subs.remove(&sub.id);
                return None;
            }
            state = self
                .events
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Drains whatever the subscription holds right now, without
    /// blocking; empty when nothing is pending.
    #[must_use]
    pub fn try_events(&self, sub: &Subscription) -> Vec<FleetEvent> {
        let mut state = self.lock_state();
        match state.subs.get_mut(&sub.id) {
            Some(s) if !s.queue.is_empty() || s.dropped > 0 => drain_sub(s),
            _ => Vec::new(),
        }
    }

    /// A point-in-time snapshot of the daemon's runtime gauges.
    #[must_use]
    pub fn health(&self) -> HealthSnapshot {
        let state = self.lock_state();
        self.health_locked(&state)
    }

    fn health_locked(&self, state: &SchedState) -> HealthSnapshot {
        let mut h = HealthSnapshot {
            workers: self.workers as u32,
            busy: state.busy,
            queued_units: state.queues.values().map(|q| q.len() as u64).sum(),
            subscribers: state.subs.len() as u32,
            ..HealthSnapshot::default()
        };
        for j in state.jobs.values() {
            if j.failed.is_some() {
                h.jobs_failed += 1;
            } else if j.cancelled {
                h.jobs_cancelled += 1;
            } else if j.completed == j.total() {
                h.jobs_done += 1;
            } else if j.dispatched > 0 {
                h.jobs_running += 1;
            } else {
                h.jobs_queued += 1;
            }
        }
        h
    }

    /// The daemon's OpenMetrics text exposition.
    ///
    /// Two strictly separated sections, then `# EOF`:
    ///
    /// 1. **Deterministic counters** (`_total` samples) — fleet job/chip
    ///    counters plus every counter replayed from completed chips'
    ///    record streams. A pure function of the submitted specs: CI
    ///    diffs exactly the `_total` lines across same-seed reruns.
    /// 2. **Runtime gauges** — queue depth per client, workers
    ///    busy/idle, jobs in flight, subscribers, and the
    ///    observer-dependent event/lag tallies. These reflect wall-clock
    ///    scheduling luck and subscriber behaviour, never diffed.
    ///
    /// Histograms are deliberately excluded: their `_sum` samples add
    /// floats in completion order, which is not rerun-stable.
    #[must_use]
    pub fn openmetrics(&self) -> String {
        let state = self.lock_state();
        let health = self.health_locked(&state);
        let c = &state.counters;
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        for (name, value) in [
            ("fleet_jobs_submitted", c.jobs_submitted),
            ("fleet_jobs_completed", c.jobs_completed),
            ("fleet_jobs_cancelled", c.jobs_cancelled),
            ("fleet_jobs_failed", c.jobs_failed),
            ("fleet_chips_completed", c.chips_completed),
        ] {
            counters.insert(name.to_owned(), value);
        }
        for (name, value) in &c.stream {
            let name = name.strip_suffix("_total").unwrap_or(name);
            *counters.entry(name.to_owned()).or_insert(0) += value;
        }
        let mut out = String::new();
        for (name, value) in &counters {
            let _ = writeln!(out, "# TYPE voltmargin_{name} counter");
            let _ = writeln!(out, "voltmargin_{name}_total {value}");
        }
        let idle = u64::from(health.workers.saturating_sub(health.busy));
        let gauges: Vec<(&str, u64)> = vec![
            ("fleet_workers", u64::from(health.workers)),
            ("fleet_workers_busy", u64::from(health.busy)),
            ("fleet_workers_idle", idle),
            ("fleet_jobs_in_flight", u64::from(health.jobs_running)),
            ("fleet_queued_units", health.queued_units),
            ("fleet_subscribers", u64::from(health.subscribers)),
            ("fleet_events_enqueued", c.events_enqueued),
            ("fleet_subscriber_lag_drops", c.lag_drops),
        ];
        for (name, value) in gauges {
            let _ = writeln!(out, "# TYPE voltmargin_{name} gauge");
            let _ = writeln!(out, "voltmargin_{name} {value}");
        }
        let _ = writeln!(out, "# TYPE voltmargin_fleet_queue_depth gauge");
        for (client, queue) in &state.queues {
            let _ = writeln!(
                out,
                "voltmargin_fleet_queue_depth{{client=\"{}\"}} {}",
                escape_label(client),
                queue.len()
            );
        }
        out.push_str("# EOF\n");
        out
    }

    fn worker_loop(&self) {
        loop {
            let (unit, spec, config, watched) = {
                let mut state = self.lock_state();
                loop {
                    if state.stopping {
                        return;
                    }
                    if let Some(unit) = state.next_unit() {
                        let Some(j) = state.jobs.get_mut(&unit.job) else {
                            continue;
                        };
                        j.dispatched += 1;
                        let newly_started = !j.started;
                        j.started = true;
                        let spec = j.chips[unit.chip];
                        let config = j.config.clone();
                        state.busy += 1;
                        let mut wake = false;
                        if newly_started {
                            wake |= state.publish(&FleetEvent::JobStarted { job: unit.job });
                        }
                        wake |= state.publish(&FleetEvent::ChipStarted {
                            job: unit.job,
                            chip: unit.chip as u32,
                            chip_id: spec.to_string(),
                        });
                        if wake {
                            self.events.notify_all();
                        }
                        break (unit, spec, config, state.watched(unit.job));
                    }
                    state = self
                        .work
                        .wait(state)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            };

            let result = self.run_chip(unit, spec, &config);

            // Replay the chip's records through a throwaway registry
            // outside the lock; only the (order-independent) counter
            // folds touch shared state. A job that was watched when the
            // chip started also gets its `chip-finished` payload encoded
            // here, outside the lock.
            let chip_counters = result.as_ref().ok().map(|outcome| {
                if watched {
                    outcome.trace();
                }
                let mut registry = MetricsRegistry::new();
                for record in &outcome.records {
                    registry.emit(record);
                }
                registry.finish();
                registry.counters().clone()
            });

            let mut state = self.lock_state();
            state.busy = state.busy.saturating_sub(1);
            // Decided under the lock that publishes the event: a
            // subscriber arriving after this point is caught up from the
            // retained outcome instead.
            let watched = state.watched(unit.job);
            // Stage the bookkeeping while `j` is borrowed, then fold the
            // counters and publish once the borrow ends.
            let mut events: Vec<FleetEvent> = Vec::new();
            let mut chip_done = false;
            let mut job_done = false;
            let mut job_failed = false;
            if let Some(j) = state.jobs.get_mut(&unit.job) {
                match result {
                    Ok(outcome) => {
                        if watched {
                            events.push(chip_finished_event(unit.job, unit.chip as u32, &outcome));
                        }
                        j.results[unit.chip] = Some(outcome);
                        j.completed += 1;
                        chip_done = true;
                        job_done = j.completed == j.total();
                        if job_done {
                            events.push(job_finished_event(unit.job, j));
                        }
                    }
                    Err(e) => {
                        job_failed = j.failed.is_none() && !j.finished();
                        j.failed = Some(e);
                        if job_failed {
                            events.push(FleetEvent::JobFailed {
                                job: unit.job,
                                message: e.to_string(),
                            });
                        }
                    }
                }
            }
            if chip_done {
                state.counters.chips_completed += 1;
                if let Some(counters) = chip_counters {
                    for (name, value) in counters {
                        *state.counters.stream.entry(name).or_insert(0) += value;
                    }
                }
            }
            if job_done {
                state.counters.jobs_completed += 1;
            }
            if job_failed {
                state.counters.jobs_failed += 1;
            }
            let mut wake = false;
            for event in &events {
                wake |= state.publish(event);
            }
            drop(state);
            if wake {
                self.events.notify_all();
            }
            self.done.notify_all();
        }
    }

    /// Characterizes one chip through the stock campaign pipeline,
    /// buffering its sealed records for the job-level canonical merge.
    ///
    /// A tap sink forwards `SweepFinished` records to subscribers as
    /// `sweep-progress` events; events flow *out of* the campaign only,
    /// so subscriber presence can never perturb the deterministic
    /// outcome.
    fn run_chip(
        &self,
        unit: Unit,
        spec: ChipSpec,
        config: &CampaignConfig,
    ) -> Result<ChipOutcome, ExecError> {
        let campaign = Campaign::new(spec, config.clone());
        let mut buffer = MemorySink::new();
        let mut tap = SweepProgressTap {
            service: self,
            job: unit.job,
            chip: unit.chip as u32,
        };
        let mut tallies = PhaseTallies::new();
        let outcome = {
            let mut sinks: Vec<&mut dyn Sink> = vec![&mut buffer, &mut tap];
            campaign.run(
                &self.executor,
                ExecContext {
                    sinks: &mut sinks,
                    cache: Some(CacheHandle::Shared(&self.cache)),
                    priors: None,
                    metrics: None,
                    profile_out: Some(&mut tallies),
                },
            )?
        };
        let stats = ChipStats::fold(&buffer.records);
        Ok(ChipOutcome {
            chip_id: spec.to_string(),
            records: buffer.records,
            trace: OnceLock::new(),
            tallies,
            runs: outcome.runs.len() as u64,
            power_cycles: outcome.watchdog_power_cycles,
            vmin_mv: stats.vmin_mv,
            severity_sum: stats.severity_sum,
            cache_hits: stats.cache_hits,
            cache_lookups: stats.cache_lookups,
        })
    }
}

/// A [`Sink`] that forwards each `SweepFinished` record of an in-flight
/// chip to the job's subscribers as a `sweep-progress` event. Strictly
/// one-way: nothing a subscriber does feeds back into the campaign.
struct SweepProgressTap<'a> {
    service: &'a FleetService,
    job: JobId,
    chip: u32,
}

impl Sink for SweepProgressTap<'_> {
    fn emit(&mut self, record: &TraceRecord) {
        let TraceEvent::SweepFinished {
            program,
            dataset,
            core,
            runs,
        } = &record.event
        else {
            return;
        };
        let event = FleetEvent::SweepProgress {
            job: self.job,
            chip: self.chip,
            program: program.clone(),
            dataset: dataset.clone(),
            core: *core,
            runs: u64::from(*runs),
        };
        let wake = {
            let mut state = self.service.lock_state();
            state.publish(&event)
        };
        if wake {
            self.service.events.notify_all();
        }
    }
}

/// Per-chip observability stats derived from the chip's own sealed
/// record stream — the same bytes the artifacts are built from.
struct ChipStats {
    vmin_mv: Option<u32>,
    severity_sum: f64,
    cache_hits: u64,
    cache_lookups: u64,
}

impl ChipStats {
    fn fold(records: &[TraceRecord]) -> ChipStats {
        let mut severity_sum = 0.0;
        let mut cache_hits = 0u64;
        let mut cache_lookups = 0u64;
        let mut sweeps: BTreeMap<(String, String, u8), SweepSteps> = BTreeMap::new();
        for record in records {
            match &record.event {
                TraceEvent::RunCompleted {
                    program,
                    dataset,
                    core,
                    mv,
                    effects,
                    severity,
                    ..
                } => {
                    severity_sum += severity;
                    sweeps
                        .entry((program.clone(), dataset.clone(), *core))
                        .or_default()
                        .record(*mv, effects);
                }
                TraceEvent::CacheLookup { hit, .. } => {
                    cache_lookups += 1;
                    if *hit {
                        cache_hits += 1;
                    }
                }
                _ => {}
            }
        }
        ChipStats {
            vmin_mv: binding_vmin(sweeps.values()),
            severity_sum,
            cache_hits,
            cache_lookups,
        }
    }
}

/// The `chip-finished` event for a completed chip, also used to catch up
/// late subscribers from retained results.
fn chip_finished_event(job: JobId, chip: u32, outcome: &ChipOutcome) -> FleetEvent {
    FleetEvent::ChipFinished {
        job,
        chip,
        chip_id: outcome.chip_id.clone(),
        runs: outcome.runs,
        power_cycles: u64::from(outcome.power_cycles),
        vmin_mv: outcome.vmin_mv,
        severity_sum: outcome.severity_sum,
        cache_hits: outcome.cache_hits,
        cache_lookups: outcome.cache_lookups,
        trace: outcome.trace().to_owned(),
    }
}

/// The terminal `job-finished` event, totalled over the job's retained
/// per-chip results in canonical chip order.
fn job_finished_event(job: JobId, j: &Job) -> FleetEvent {
    let mut runs = 0u64;
    let mut power_cycles = 0u64;
    for outcome in j.results.iter().flatten() {
        runs += outcome.runs;
        power_cycles += u64::from(outcome.power_cycles);
    }
    FleetEvent::JobFinished {
        job,
        chips: j.total(),
        runs,
        power_cycles,
    }
}

/// Drains a subscription's queue, prefixing a `lagged` frame carrying
/// the exact drop count when the bounded queue overflowed since the
/// last drain.
fn drain_sub(s: &mut SubState) -> Vec<FleetEvent> {
    let mut out = Vec::with_capacity(s.queue.len() + 1);
    if s.dropped > 0 {
        out.push(FleetEvent::Lagged {
            job: s.job,
            dropped: s.dropped,
        });
        s.dropped = 0;
    }
    out.extend(s.queue.drain(..));
    out
}

/// Escapes a string for use inside an OpenMetrics label value.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Folds a job's per-chip outcomes (canonical chip order) into the merged
/// deliverables: one re-sealed JSONL stream, one metrics exposition, and
/// the fleet-level tallies.
fn merge_outcomes(chips: u32, outcomes: &[&ChipOutcome]) -> FleetResults {
    let records = merge_streams(outcomes.iter().map(|o| o.records.as_slice()));
    let mut trace = String::new();
    for record in &records {
        // Non-encodable records never leave `Campaign::run`; a failed
        // write leaves `trace` as it was, so skipping keeps the merge total.
        if record.write_json_line(&mut trace).is_ok() {
            trace.push('\n');
        }
    }
    let mut registry = MetricsRegistry::new();
    for record in &records {
        registry.emit(record);
    }
    registry.finish();
    let mut tallies = PhaseTallies::new();
    for o in outcomes {
        tallies.merge(&o.tallies);
    }
    FleetResults {
        chips,
        runs: outcomes.iter().map(|o| o.runs).sum(),
        power_cycles: outcomes.iter().map(|o| u64::from(o.power_cycles)).sum(),
        executed_ops: tallies.executed_ops(),
        trace,
        metrics: registry.to_openmetrics(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::FleetSpec;
    use margins_core::search::SearchStrategy;
    use margins_sim::Corner;

    fn tiny_spec(chips: u32) -> FleetSpec {
        FleetSpec {
            corner: Corner::Ttt,
            first_serial: 10,
            chips,
            benchmarks: vec!["namd".into()],
            cores: vec![0],
            iterations: 1,
            start_mv: 890,
            floor_mv: 885,
            seed: 11,
            search: SearchStrategy::Exhaustive,
        }
    }

    #[test]
    fn worker_validation_reuses_executor_errors() {
        assert_eq!(
            FleetService::new(0, SharedCampaignCache::new()).err(),
            Some(ExecError::ZeroThreads)
        );
        assert!(matches!(
            FleetService::new(100_000, SharedCampaignCache::new()).err(),
            Some(ExecError::TooManyThreads { .. })
        ));
    }

    #[test]
    fn submit_status_wait_lifecycle() {
        let svc = FleetService::new(2, SharedCampaignCache::new()).expect("valid");
        let results = svc.run(|| {
            let (job, chips) = svc.submit("lab", &tiny_spec(2)).expect("valid spec");
            assert_eq!(chips, 2);
            let outcome = svc.wait("lab", job).expect("known job");
            let status = svc.status("lab", job).expect("known job");
            assert_eq!(status.state, "done");
            assert_eq!((status.done, status.total), (2, 2));
            // Unknown pairs are None, including a client/job mismatch.
            assert!(svc.status("intruder", job).is_none());
            assert!(svc.wait("lab", job + 1).is_none());
            match outcome {
                JobOutcome::Done(r) => r,
                other => panic!("expected Done, got {other:?}"),
            }
        });
        assert_eq!(results.chips, 2);
        assert!(results.runs > 0);
        assert!(results.executed_ops > 0, "cold pass must probe boards");
        assert!(results.trace.ends_with('\n'));
        assert!(results.metrics.ends_with("# EOF\n"));
    }

    #[test]
    fn cancel_drops_queued_chips_and_unblocks_waiters() {
        // Zero live workers inside `run` is impossible (validated), so
        // cancel a job before starting the pool: every unit is queued.
        let svc = FleetService::new(1, SharedCampaignCache::new()).expect("valid");
        let (job, _) = svc.submit("lab", &tiny_spec(4)).expect("valid spec");
        assert!(svc.cancel("lab", job));
        assert!(!svc.cancel("nobody", job));
        assert_eq!(svc.status("lab", job).map(|s| s.state), Some("cancelled"));
        let outcome = svc.run(|| svc.wait("lab", job));
        assert_eq!(outcome, Some(JobOutcome::Cancelled));
    }

    #[test]
    fn invalid_specs_are_rejected_before_scheduling() {
        let svc = FleetService::new(1, SharedCampaignCache::new()).expect("valid");
        let err = svc
            .submit("lab", &tiny_spec(0))
            .expect_err("zero chips must be rejected");
        assert_eq!(err, SpecError::NoChips);
    }
}
