//! Campaign execution engines.
//!
//! A characterization campaign is a list of independent (benchmark, core)
//! *work items*; how those items are dispatched onto workers is an
//! execution detail that must never leak into results or telemetry. This
//! module owns that detail behind the [`CampaignExecutor`] trait: the
//! runner hands an executor the campaign's canonical item list (wrapped in
//! an [`ItemTask`]), and the executor runs each item — on the calling
//! thread ([`SerialExecutor`]), on a sharded worker pool
//! ([`ThreadPoolExecutor`]), or on whatever future engine (an async daemon
//! worker pool, a fleet dispatcher) implements the trait — and delivers
//! every [`ItemOutput`] **exactly once, in canonical item order**.
//!
//! That delivery contract is what keeps campaign streams byte-deterministic
//! regardless of the executor: each item stages its trace events in a
//! private [`EventBuffer`](margins_trace::EventBuffer), the executor's
//! reorder-merge releases completions in canonical order, and the runner's
//! single [`StreamFinalizer`](margins_trace::StreamFinalizer) seals them
//! into one stream. The runner verifies the contract at run time and
//! surfaces violations as typed [`ExecError`]s instead of corrupting a
//! stream, so any new executor can be validated against the same
//! conformance suite the built-in ones pass.
//!
//! Executor identity (serial vs pool, worker counts, scheduling) is never
//! recorded in the deterministic stream; see
//! [`Campaign::run`](crate::runner::Campaign::run).

use crate::cache::{CampaignCache, SharedCampaignCache};
use crate::profile::PhaseTallies;
use crate::runner::{Campaign, TracedItem};
use crate::search::SearchPriors;
use margins_sim::CoreId;
use margins_trace::{MetricsRegistry, Sink};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::mpsc;

/// Typed executor failure.
///
/// Construction errors ([`ExecError::ZeroThreads`],
/// [`ExecError::TooManyThreads`]) reject nonsensical pool shapes before
/// any work starts; delivery errors ([`ExecError::OutOfOrderDelivery`],
/// [`ExecError::IncompleteDelivery`]) are raised by
/// [`Campaign::run`](crate::runner::Campaign::run) when an executor
/// violates its exactly-once, in-order delivery contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// A thread pool cannot have zero workers.
    ZeroThreads,
    /// The requested worker count exceeds the supported maximum.
    TooManyThreads {
        /// Workers requested.
        requested: usize,
        /// Largest supported pool ([`ThreadPoolExecutor::MAX_THREADS`]).
        max: usize,
    },
    /// The executor delivered an item out of canonical order.
    OutOfOrderDelivery {
        /// The canonical index the runner expected next.
        expected: usize,
        /// The index the executor delivered instead.
        delivered: usize,
    },
    /// The executor finished without delivering every item.
    IncompleteDelivery {
        /// Items actually delivered.
        delivered: usize,
        /// Items the campaign scheduled.
        expected: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::ZeroThreads => f.write_str("thread pool needs at least one worker"),
            ExecError::TooManyThreads { requested, max } => {
                write!(
                    f,
                    "thread pool of {requested} workers exceeds the maximum of {max}"
                )
            }
            ExecError::OutOfOrderDelivery {
                expected,
                delivered,
            } => write!(
                f,
                "executor delivered item {delivered} while item {expected} was expected \
                 (items must arrive in canonical order)"
            ),
            ExecError::IncompleteDelivery {
                delivered,
                expected,
            } => write!(
                f,
                "executor delivered {delivered} of {expected} scheduled items"
            ),
        }
    }
}

impl std::error::Error for ExecError {}

/// One schedulable unit of a campaign: a (benchmark, core) pair at its
/// canonical position.
///
/// `index` equals the item's position in [`ItemTask::items`] — the order
/// the serial execution visits items (benchmarks-major) and the order the
/// merged trace stream presents them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkItem {
    /// Canonical position of the item in the campaign.
    pub index: usize,
    /// Index into the campaign's benchmark list.
    pub bench: usize,
    /// The core under characterization.
    pub core: CoreId,
}

/// The unit of work an executor dispatches: the campaign's canonical item
/// list plus everything needed to characterize one item.
///
/// Executors treat this as a black box — call [`ItemTask::run_item`] for
/// each of [`ItemTask::items`] and deliver the outputs in canonical order.
/// The task is `Sync`, so items may run on any thread in any order;
/// determinism comes from the per-item event staging inside `run_item`
/// and from the delivery order, not from where items execute.
pub struct ItemTask<'a> {
    campaign: &'a Campaign,
    items: &'a [WorkItem],
    traced: bool,
    cache: Option<&'a CampaignCache>,
    priors: Option<&'a SearchPriors>,
}

impl<'a> ItemTask<'a> {
    pub(crate) fn new(
        campaign: &'a Campaign,
        items: &'a [WorkItem],
        traced: bool,
        cache: Option<&'a CampaignCache>,
        priors: Option<&'a SearchPriors>,
    ) -> ItemTask<'a> {
        ItemTask {
            campaign,
            items,
            traced,
            cache,
            priors,
        }
    }

    /// The campaign's work items, in canonical order; every item's
    /// [`WorkItem::index`] equals its position in this slice.
    #[must_use]
    pub fn items(&self) -> &'a [WorkItem] {
        self.items
    }

    /// Characterizes one item on the calling thread.
    ///
    /// Pure with respect to scheduling: the output depends only on the
    /// campaign coordinates, never on which thread runs it or what ran
    /// before (every probe runs on a simulated board in its power-on
    /// state).
    #[must_use]
    pub fn run_item(&self, item: &WorkItem) -> ItemOutput {
        ItemOutput {
            index: item.index,
            item: self
                .campaign
                .run_work_item(item, self.traced, self.cache, self.priors),
        }
    }
}

/// The opaque result of one work item, tagged with its canonical index.
#[derive(Debug)]
pub struct ItemOutput {
    index: usize,
    item: TracedItem,
}

impl ItemOutput {
    /// The canonical index of the item this output belongs to.
    #[must_use]
    fn index(&self) -> usize {
        self.index
    }

    pub(crate) fn into_parts(self) -> (usize, TracedItem) {
        (self.index, self.item)
    }
}

/// An engine that executes a campaign's work items.
///
/// # Contract
///
/// `run_items` must call `deliver` **exactly once per item of
/// [`ItemTask::items`], in canonical order** (ascending
/// [`WorkItem::index`]). [`Campaign::run`](crate::runner::Campaign::run)
/// verifies both properties and fails with a typed [`ExecError`] on
/// violation, so a misbehaving executor can never corrupt a trace stream
/// or an outcome. Items themselves may execute on any thread in any
/// order; only delivery is ordered.
pub trait CampaignExecutor: Sync {
    /// A short human-readable engine name (CLI/log display only — never
    /// part of the deterministic stream).
    fn label(&self) -> &'static str;

    /// Executes every item of `task`, delivering outputs in canonical
    /// order.
    ///
    /// # Errors
    ///
    /// Executor-specific failures; the built-in executors never fail here
    /// (invalid pool shapes are rejected at construction).
    fn run_items(
        &self,
        task: &ItemTask<'_>,
        deliver: &mut dyn FnMut(ItemOutput),
    ) -> Result<(), ExecError>;
}

/// Runs every item on the calling thread, in canonical order.
///
/// The reference implementation of the executor contract: delivery order
/// is execution order, so there is nothing to reorder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SerialExecutor;

impl CampaignExecutor for SerialExecutor {
    fn label(&self) -> &'static str {
        "serial"
    }

    fn run_items(
        &self,
        task: &ItemTask<'_>,
        deliver: &mut dyn FnMut(ItemOutput),
    ) -> Result<(), ExecError> {
        for item in task.items() {
            deliver(task.run_item(item));
        }
        Ok(())
    }
}

/// Shards items round-robin over a pool of scoped worker threads.
///
/// Workers send completions over a channel as they finish; a reorder
/// buffer on the delivering side holds early completions until their
/// canonical position is reached, so delivery order — and therefore the
/// merged trace stream — is identical to [`SerialExecutor`]'s. A campaign
/// that makes only one shard (one item, or a one-thread pool) runs on the
/// calling thread through [`SerialExecutor`] itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPoolExecutor {
    threads: usize,
}

impl ThreadPoolExecutor {
    /// Largest supported pool. Far above any sensible shard count for an
    /// in-process campaign; the bound exists to reject obviously absurd
    /// requests (`--threads 1000000`) with a typed error instead of
    /// exhausting the host spawning threads.
    pub const MAX_THREADS: usize = 512;

    /// A pool of exactly `threads` workers.
    ///
    /// # Errors
    ///
    /// [`ExecError::ZeroThreads`] when `threads == 0`;
    /// [`ExecError::TooManyThreads`] above [`Self::MAX_THREADS`].
    pub fn new(threads: usize) -> Result<ThreadPoolExecutor, ExecError> {
        if threads == 0 {
            return Err(ExecError::ZeroThreads);
        }
        if threads > Self::MAX_THREADS {
            return Err(ExecError::TooManyThreads {
                requested: threads,
                max: Self::MAX_THREADS,
            });
        }
        Ok(ThreadPoolExecutor { threads })
    }

    /// The configured worker count (actual workers are additionally capped
    /// at the item count, so small campaigns never spawn idle threads).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl CampaignExecutor for ThreadPoolExecutor {
    fn label(&self) -> &'static str {
        "pool"
    }

    fn run_items(
        &self,
        task: &ItemTask<'_>,
        deliver: &mut dyn FnMut(ItemOutput),
    ) -> Result<(), ExecError> {
        let items = task.items();
        let workers = self.threads.min(items.len()).max(1);
        // One shard is already in canonical order: run it on the calling
        // thread, exactly as the reference executor does, and spawn nothing.
        if workers == 1 {
            return SerialExecutor.run_items(task, deliver);
        }

        // Shard round-robin, like the serial order dealt across workers:
        // adjacent items land on different workers, which spreads the
        // expensive deep sweeps evenly.
        let mut shards: Vec<Vec<&WorkItem>> = vec![Vec::new(); workers];
        for (i, item) in items.iter().enumerate() {
            shards[i % workers].push(item);
        }

        // A panicking worker drops its sender, so the receive loop still
        // ends; the scope then re-raises the panic once every worker joined.
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel::<ItemOutput>();
            for shard in &shards {
                let tx = tx.clone();
                scope.spawn(move || {
                    for item in shard {
                        // A closed receiver means the campaign was
                        // abandoned; nothing useful remains to do with
                        // this item's result.
                        // lint: allow(swallowed-fallibility) — abandoned campaign: the receiver is gone by design
                        let _ = tx.send(task.run_item(item));
                    }
                });
            }
            drop(tx);

            // Reorder buffer: completions arrive in scheduling order;
            // deliver them in canonical item order.
            let mut pending: BTreeMap<usize, ItemOutput> = BTreeMap::new();
            let mut next = 0usize;
            for output in rx {
                pending.insert(output.index(), output);
                while let Some(ready) = pending.remove(&next) {
                    deliver(ready);
                    next += 1;
                }
            }
        });
        Ok(())
    }
}

/// A campaign result cache, as handed to [`Campaign::run`]: either an
/// exclusively borrowed [`CampaignCache`] (the single-campaign path) or a
/// [`SharedCampaignCache`] several concurrent campaigns append to.
///
/// Either way the campaign reads one immutable view of the cache for its
/// whole run — fresh results land after the last lookup (owned) or in the
/// shared append log (shared) — so lookups are schedule-independent and
/// results never depend on what a sibling campaign is doing concurrently.
#[derive(Debug)]
pub enum CacheHandle<'a> {
    /// Exclusive use of a plain cache; fresh results are inserted directly
    /// after the campaign.
    Owned(&'a mut CampaignCache),
    /// A shared concurrent store; fresh results are appended to its log
    /// and published after the campaign.
    Shared(&'a SharedCampaignCache),
}

/// Everything [`Campaign::run`] can attach besides the executor: sinks,
/// metrics, cache, priors, and the profile rollup destination.
///
/// All fields default to "off" ([`ExecContext::default`]): no sinks means
/// no event is ever constructed.
#[derive(Default)]
pub struct ExecContext<'s, 'a> {
    /// Sinks receiving the finalized record stream, live and in canonical
    /// order. Empty disables tracing entirely.
    pub sinks: &'s mut [&'a mut dyn Sink],
    /// Campaign result cache (probes are replayed on hit, inserted on
    /// miss).
    pub cache: Option<CacheHandle<'s>>,
    /// Warm-start priors; when `None` and a cache is present, priors are
    /// derived from the cache before execution starts.
    pub priors: Option<&'s SearchPriors>,
    /// When present, rides the sink stream and accumulates the campaign's
    /// metrics (its presence alone makes the execution traced).
    pub metrics: Option<&'s mut MetricsRegistry>,
    /// When present, receives the campaign-level profile tallies —
    /// always computed, independent of `config.profile` (which only gates
    /// the trace events).
    pub profile_out: Option<&'s mut PhaseTallies>,
}

impl<'s, 'a> ExecContext<'s, 'a> {
    /// A context with everything off: untraced, uncached, unmetered.
    #[must_use]
    pub fn new() -> ExecContext<'s, 'a> {
        ExecContext::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_construction_validates_thread_counts() {
        assert_eq!(
            ThreadPoolExecutor::new(0).unwrap_err(),
            ExecError::ZeroThreads
        );
        assert_eq!(
            ThreadPoolExecutor::new(ThreadPoolExecutor::MAX_THREADS + 1).unwrap_err(),
            ExecError::TooManyThreads {
                requested: ThreadPoolExecutor::MAX_THREADS + 1,
                max: ThreadPoolExecutor::MAX_THREADS,
            }
        );
        assert_eq!(ThreadPoolExecutor::new(4).expect("valid").threads(), 4);
    }

    #[test]
    fn errors_render_actionable_messages() {
        assert!(ExecError::ZeroThreads.to_string().contains("at least one"));
        let msg = ExecError::TooManyThreads {
            requested: 1_000_000,
            max: 512,
        }
        .to_string();
        assert!(msg.contains("1000000") && msg.contains("512"), "{msg}");
        let msg = ExecError::OutOfOrderDelivery {
            expected: 2,
            delivered: 5,
        }
        .to_string();
        assert!(msg.contains("item 5") && msg.contains("item 2"), "{msg}");
        let msg = ExecError::IncompleteDelivery {
            delivered: 3,
            expected: 8,
        }
        .to_string();
        assert!(msg.contains("3 of 8"), "{msg}");
    }

    #[test]
    fn executor_labels_are_stable() {
        assert_eq!(SerialExecutor.label(), "serial");
        assert_eq!(ThreadPoolExecutor::new(2).expect("valid").label(), "pool");
    }
}
