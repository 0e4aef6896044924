//! The execution phase of Figure 2: voltage sweeps with recovery.
//!
//! For every (benchmark, core) pair the runner applies the *reliable cores
//! setup* (target PMD at full clock, every other PMD parked at 300 MHz),
//! captures a golden output digest at nominal conditions, then visits the
//! 5 mV voltage grid as directed by the campaign's [`SearchStrategy`]: the
//! exhaustive strategy walks every step top-down like the paper's massive
//! campaign, while the adaptive strategies bisect for the two region
//! boundaries. Each work item builds one simulated board and returns it to
//! its power-on state before every probe, golden or voltage step (the
//! §2.2.1 initialization phase). A reinitialized board is exactly a new
//! one, which makes step outcomes independent of visit order; that
//! property is what lets an adaptive plan, or a replay from a persistent
//! [`CampaignCache`], stand in for the exhaustive descent. After each run
//! the rail is restored to nominal before the log is persisted (*safe
//! data collection*), and the watchdog power-cycles the board whenever a
//! run hangs it.
//!
//! A probe answered from the cache settles exactly as one the board
//! answered: the same lookup tally and event, the same golden event, one
//! row and one `RunCompleted` per run, a step verdict read off the step's
//! rows, and one count of power cycles, fresh or replayed.
//!
//! [`SearchStrategy`]: crate::search::SearchStrategy
//! [`CampaignCache`]: crate::cache::CampaignCache

use crate::cache::{
    encode_enhancements, CachedRun, CampaignCache, GoldenEntry, GoldenKey, StepEntry, StepKey,
};
use crate::chains::{self, ChainKey};
use crate::classify::{classify_run, ClassifiedRun};
use crate::config::{BenchmarkRef, CampaignConfig, SweptRail, PARKED_FREQUENCY};
use crate::exec::{CacheHandle, CampaignExecutor, ExecContext, ExecError, ItemTask, WorkItem};
use crate::profile::{Phase, PhaseTallies};
use crate::search::{SearchPlan, SearchPriors, StepVerdict};
use crate::severity::SeverityWeights;
use crate::watchdog;
use margins_rng::splitmix64;
use margins_sim::volt::{Millivolts, PMD_NOMINAL, SOC_NOMINAL};
use margins_sim::{
    ChipSpec, CoreId, CounterFile, OutputDigest, PmdId, RunRecord, System, SystemConfig,
};
use margins_trace::{EventBuffer, Sink, StreamFinalizer, TraceEvent};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A characterization campaign: one chip, one configuration.
#[derive(Debug, Clone)]
pub struct Campaign {
    spec: ChipSpec,
    config: CampaignConfig,
}

/// Everything a campaign produced.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The characterized chip.
    pub spec: ChipSpec,
    /// The configuration that ran.
    pub config: CampaignConfig,
    /// All classified runs, ordered by (benchmark, core, voltage ↓, iter).
    pub runs: Vec<ClassifiedRun>,
    /// Golden digests per (benchmark, dataset).
    pub goldens: BTreeMap<(String, String), OutputDigest>,
    /// Watchdog recoveries performed during the campaign (cache replays
    /// count the recoveries the original probe performed).
    pub watchdog_power_cycles: u32,
}

impl Campaign {
    /// Creates a campaign for `spec` with `config`.
    #[must_use]
    pub fn new(spec: ChipSpec, config: CampaignConfig) -> Self {
        Campaign { spec, config }
    }

    /// Executes the campaign on `exec` — the one way to run a campaign.
    /// [`SerialExecutor`](crate::exec::SerialExecutor) runs it on the
    /// calling thread, a
    /// [`ThreadPoolExecutor`](crate::exec::ThreadPoolExecutor) shards it
    /// over workers; `ctx` carries the sinks, cache, priors, metrics
    /// registry and profile destination, all off in [`ExecContext::new`].
    ///
    /// The campaign enumerates its canonical work items (benchmarks-major
    /// × cores, index = canonical position), hands them to the executor,
    /// and consumes deliveries in canonical order: merge profile tallies,
    /// seal each item's staged events through the single
    /// [`StreamFinalizer`], accumulate runs/goldens/power cycles, collect
    /// fresh cache entries. Which engine ran the items — and with how many
    /// workers — is invisible in every output: the trace stream, the
    /// metrics exposition, the profile rollups and the outcome are all
    /// byte-identical across conforming executors. Executor identity is
    /// deliberately absent from the trace schema.
    ///
    /// Every sink receives the same finalized record stream, live and in
    /// canonical order: the campaign preamble (`CampaignStarted`, one
    /// `ShardScheduled` per work item — the *logical* shard, never the
    /// worker), each item's events in item order, then `CampaignFinished`.
    /// With no sinks and no registry no event is ever constructed, and
    /// results are identical either way. A registry in `ctx.metrics` rides
    /// the same stream, so its snapshot is a pure function of the records.
    ///
    /// Cache semantics ([`CacheHandle`]): the campaign reads one immutable
    /// cache view fixed before the first probe (for a shared cache, an
    /// [`Arc`] snapshot), so lookups never race with writers; fresh
    /// results are written back after the last delivery — directly into an
    /// owned cache, or appended and published to a shared one. Because
    /// every probe runs on a board in its power-on state (each work item's
    /// one board, reinitialized before the probe), a cached rerun's
    /// outcome is identical to a cold one. With a cache and no
    /// `ctx.priors`, warm-start priors are derived from the cache before
    /// the first probe, so searches stay schedule-independent.
    ///
    /// # Errors
    ///
    /// [`ExecError`] when the executor violates its delivery contract
    /// (out-of-order or incomplete delivery). The built-in executors never
    /// do; the check exists so third-party executors fail loudly instead
    /// of corrupting a stream.
    pub fn run(
        &self,
        exec: &dyn CampaignExecutor,
        ctx: ExecContext<'_, '_>,
    ) -> Result<CampaignOutcome, ExecError> {
        let ExecContext {
            sinks,
            cache,
            priors,
            metrics,
            profile_out,
        } = ctx;
        // The metrics registry is just another sink riding the finalized
        // stream.
        let mut all_sinks: Vec<&mut dyn Sink> = Vec::with_capacity(sinks.len() + 1);
        for sink in sinks.iter_mut() {
            all_sinks.push(&mut **sink);
        }
        if let Some(metrics) = metrics {
            all_sinks.push(metrics);
        }
        let sinks: &mut [&mut dyn Sink] = &mut all_sinks;

        let items: Vec<WorkItem> = self
            .config
            .work_items()
            .enumerate()
            .map(|(index, (bench, core))| WorkItem { index, bench, core })
            .collect();

        // Fix one immutable cache view before the first probe executes.
        // For a shared cache this is an Arc snapshot: concurrent sibling
        // campaigns may append and publish freely without this campaign
        // ever observing mid-run changes (lookups stay deterministic).
        let mut cache = cache;
        let snapshot: Option<Arc<CampaignCache>> = match &cache {
            Some(CacheHandle::Shared(shared)) => Some(shared.snapshot()),
            _ => None,
        };
        let cache_view: Option<&CampaignCache> = match (&cache, &snapshot) {
            (Some(CacheHandle::Owned(owned)), _) => Some(&**owned),
            (Some(CacheHandle::Shared(_)), Some(snap)) => Some(snap.as_ref()),
            _ => None,
        };

        // Warm-start priors must be fixed before the first probe executes;
        // deriving them from sibling items of the running campaign would
        // make searches schedule-dependent.
        let derived = if self.config.search.uses_priors() && priors.is_none() {
            cache_view.map(|c| c.derive_priors(&self.spec.to_string(), &self.config))
        } else {
            None
        };
        let priors = priors.or(derived.as_ref());

        let traced = !sinks.is_empty();
        let mut finalizer = StreamFinalizer::new();
        if traced {
            emit_record(
                &mut finalizer,
                sinks,
                TraceEvent::CampaignStarted {
                    chip: self.spec.to_string(),
                    rail: self.config.rail.label().to_owned(),
                    benchmarks: self.config.benchmarks.len() as u32,
                    cores: self.config.cores.len() as u32,
                    steps: self.config.step_count(),
                    iterations: self.config.iterations,
                    shards: items.len() as u32,
                    seed: self.config.seed,
                },
            );
            // The schedule announces *logical* shards (one per work item,
            // in canonical order) so the preamble is byte-identical no
            // matter which executor — or how many worker threads — runs it.
            for item in &items {
                emit_record(
                    &mut finalizer,
                    sinks,
                    TraceEvent::ShardScheduled {
                        shard: item.index as u32,
                        items: self.config.step_count() * self.config.iterations,
                    },
                );
            }
        }

        let mut runs: Vec<ClassifiedRun> = Vec::new();
        let mut goldens = BTreeMap::new();
        let mut power_cycles = 0u32;
        let mut fresh_goldens: Vec<(GoldenKey, GoldenEntry)> = Vec::new();
        let mut fresh_steps: Vec<(StepKey, StepEntry)> = Vec::new();
        let mut campaign_profile = PhaseTallies::new();
        let mut next = 0usize;
        let mut order_error: Option<ExecError> = None;
        {
            let task = ItemTask::new(self, &items, traced, cache_view, priors);
            let mut deliver = |output: crate::exec::ItemOutput| {
                if order_error.is_some() {
                    return;
                }
                let (index, ready) = output.into_parts();
                if index != next {
                    order_error = Some(ExecError::OutOfOrderDelivery {
                        expected: next,
                        delivered: index,
                    });
                    return;
                }
                next += 1;
                campaign_profile.merge(&ready.profile);
                for event in ready.events {
                    emit_record(&mut finalizer, sinks, event);
                }
                goldens.insert(ready.golden_key, ready.golden);
                runs.extend(ready.runs);
                power_cycles += ready.power_cycles;
                fresh_goldens.extend(ready.fresh_golden);
                fresh_steps.extend(ready.fresh_steps);
            };
            exec.run_items(&task, &mut deliver)?;
        }
        if let Some(err) = order_error {
            return Err(err);
        }
        if next != items.len() {
            return Err(ExecError::IncompleteDelivery {
                delivered: next,
                expected: items.len(),
            });
        }

        // Write fresh results back after the last lookup: directly into an
        // owned cache, or onto the shared append log (published at once so
        // a subsequent campaign's snapshot sees this campaign's work).
        match cache.as_mut() {
            Some(CacheHandle::Owned(owned)) => {
                for (key, entry) in fresh_goldens {
                    owned.insert_golden(key, entry);
                }
                for (key, entry) in fresh_steps {
                    owned.insert_step(key, entry);
                }
            }
            Some(CacheHandle::Shared(shared)) => {
                for (key, entry) in fresh_goldens {
                    shared.append_golden(key, entry);
                }
                for (key, entry) in fresh_steps {
                    shared.append_step(key, entry);
                }
                shared.publish();
            }
            None => {}
        }

        sort_canonically(&mut runs, self.config.rail);
        if traced {
            // Campaign epilogue: the per-phase work rollups precede the
            // closing summary, aggregated in canonical item order.
            if self.config.profile {
                for event in campaign_profile.phase_events(items.len() as u64) {
                    emit_record(&mut finalizer, sinks, event);
                }
            }
            let total = runs.len() as u64;
            emit_record(
                &mut finalizer,
                sinks,
                TraceEvent::CampaignFinished {
                    runs: total,
                    power_cycles,
                },
            );
            for sink in sinks.iter_mut() {
                sink.finish();
            }
        }
        if let Some(out) = profile_out {
            *out = campaign_profile;
        }
        Ok(CampaignOutcome {
            spec: self.spec,
            config: self.config.clone(),
            runs,
            goldens,
            watchdog_power_cycles: power_cycles,
        })
    }

    /// The item's board in its power-on state — the §2.2.1 initialization
    /// phase, applied before every probe that runs on the machine. The
    /// item's first such probe builds the board; each later one
    /// reinitializes it, which leaves it exactly as a new board (thermal
    /// history and energy meter included), so every step outcome is
    /// independent of which probes ran before it. Such a board is
    /// responsive, so the golden run needs no watchdog poll.
    fn fresh_board<'b>(
        &self,
        board: &'b mut Option<System>,
        buffer: Option<&Arc<EventBuffer>>,
    ) -> &'b mut System {
        match board {
            Some(system) => {
                system.reinitialize();
                system
            }
            None => {
                let mut system = System::new(
                    self.spec,
                    SystemConfig {
                        enhancements: self.config.enhancements,
                    },
                );
                if let Some(buffer) = buffer {
                    system.set_observer(buffer.clone());
                }
                board.insert(system)
            }
        }
    }

    /// Executes one (benchmark, core) work item end to end: the sweep's
    /// span events (opened and closed here), the characterization itself,
    /// and the optional per-sweep profile samples, all staged in a private
    /// per-item [`EventBuffer`] so executors can run items on any thread
    /// in any order without perturbing the merged stream. An untraced item
    /// has no buffer, and builds no event.
    pub(crate) fn run_work_item(
        &self,
        item: &WorkItem,
        traced: bool,
        cache: Option<&CampaignCache>,
        priors: Option<&SearchPriors>,
    ) -> TracedItem {
        let bench = &self.config.benchmarks[item.bench];
        let core = item.core;
        let buffer = traced.then(|| Arc::new(EventBuffer::new()));
        let buffer = buffer.as_ref();
        note(buffer, || TraceEvent::SweepStarted {
            program: bench.name.clone(),
            dataset: bench.dataset.label().to_owned(),
            core: core.index() as u8,
            shard: item.index as u32,
        });
        let mut result = self.characterize_item(bench, core, buffer, cache, priors);
        if self.config.profile {
            for event in result
                .profile
                .sample_events(&bench.name, bench.dataset.label(), core)
            {
                note(buffer, || event);
            }
        }
        note(buffer, || TraceEvent::SweepFinished {
            program: bench.name.clone(),
            dataset: bench.dataset.label().to_owned(),
            core: core.index() as u8,
            runs: result.runs.len() as u32,
        });
        result.events = buffer.map_or_else(Vec::new, |buffer| buffer.drain());
        result
    }

    /// Characterizes one (benchmark, core) item: golden capture plus the
    /// strategy-directed walk of the voltage grid, each probe answered from
    /// the cache when possible and executed otherwise on the item's one
    /// board, reinitialized to its power-on state first. A fully cached
    /// item builds no board.
    ///
    /// A probe settles the same way whichever source answered it. Each
    /// lookup is tallied and noted as one `CacheLookup`; the golden digest
    /// comes from a [`GoldenEntry`] either way and is noted as one
    /// `GoldenCaptured`. Each of a step's runs is pushed as a row and noted
    /// as one `RunCompleted`, the step's verdict is read off the rows it
    /// pushed, and its power cycles, fresh or replayed, advance
    /// `recoveries`, the item's one count of them.
    ///
    /// A probe whose every run is provably fault-free is replayed instead
    /// of simulated: `chain[k]` is a simulated run that was the k-th after
    /// a power-on state, with it and the k runs before it all fault-free,
    /// so it starts from the cache contents iteration k of any fault-free
    /// probe starts from. When the chain covers the iterations and the
    /// board certifies each one at the step's supplies
    /// ([`System::replays_cleanly`]), every iteration is answered by
    /// [`System::replay`]; otherwise every iteration executes. The golden
    /// run is replayed from `chain[0]` when the board certifies it. A
    /// replay leaves the board's cache contents behind, and nothing reads
    /// them: the next probe, if any, reinitializes the board.
    ///
    /// The chain depends only on the program, its dataset and the chip's
    /// enhancements, so the item starts from the one an earlier item on
    /// this thread left in the memo (`chains`), whatever core, chip or
    /// campaign that item characterized, and hands it back, longer if the
    /// item extended it.
    ///
    /// The item comes back without its events, which `run_work_item`
    /// drains from `buffer` once it has closed the sweep.
    fn characterize_item(
        &self,
        bench: &BenchmarkRef,
        core: CoreId,
        buffer: Option<&Arc<EventBuffer>>,
        cache: Option<&CampaignCache>,
        priors: Option<&SearchPriors>,
    ) -> TracedItem {
        #[expect(
            clippy::expect_used,
            reason = "benchmark names validated at config build time"
        )]
        let program = margins_workloads::suite::by_name(&bench.name, bench.dataset)
            .expect("benchmark validated at config build time");
        let chip = self.spec.to_string();
        let dataset = bench.dataset.label();
        let core_u8 = core.index() as u8;
        let enhancements = encode_enhancements(self.config.enhancements);

        // One board per item, built by its first machine probe.
        let mut board: Option<System> = None;
        // Every power cycle of the item, performed by the watchdog or
        // replayed from the cache: the trace's recovery ordinals, each
        // fresh step entry's count, the board-init tally and the outcome
        // all read it.
        let mut recoveries = 0u32;
        let mut cache_hits = 0u32;
        let mut machine_probes = 0u32;
        let mut fresh_golden: Option<(GoldenKey, GoldenEntry)> = None;
        let mut fresh_steps: Vec<(StepKey, StepEntry)> = Vec::new();
        let chain_key = ChainKey {
            program: bench.name.clone(),
            dataset: dataset.to_owned(),
            enhancements,
        };
        let mut chain: Vec<RunRecord> = chains::take(&chain_key);
        let mut replayed_golden = false;
        let mut replayed_steps = 0u32;
        // Work accounting is a pure function of the deterministic run
        // records, so the tallies are identical across reruns and shard
        // counts. A replayed run counts the modelled ops of the run it
        // stands for; cached replays retain no ops/fault-sample counts, so
        // a warm rerun legitimately reports less executed work.
        let mut tallies = PhaseTallies::new();
        // Tallies one campaign-cache probe and notes its `CacheLookup`;
        // an uncached campaign probes nothing.
        let look_up = |tallies: &mut PhaseTallies, probe: &str, mv: u32, hit: bool| {
            if cache.is_some() {
                tallies.record_cache_probe();
                note(buffer, || TraceEvent::CacheLookup {
                    program: bench.name.clone(),
                    dataset: dataset.to_owned(),
                    core: core_u8,
                    probe: probe.to_owned(),
                    mv,
                    hit,
                });
            }
        };

        // Golden run at nominal conditions.
        let golden_key = GoldenKey {
            chip: chip.clone(),
            target_mhz: self.config.target_frequency.get(),
            parked_mhz: PARKED_FREQUENCY.get(),
            enhancements,
            seed: self.config.seed,
            program: bench.name.clone(),
            dataset: dataset.to_owned(),
            core: core_u8,
        };
        let cached_golden = cache.and_then(|c| c.golden(&golden_key)).cloned();
        look_up(&mut tallies, "golden", 0, cached_golden.is_some());
        let golden_entry = match cached_golden {
            Some(entry) => entry,
            None => {
                let system = self.fresh_board(&mut board, buffer);
                self.apply_reliable_cores_setup(system, core);
                let golden_seed =
                    run_seed(self.config.seed, &bench.name, dataset, core, 0, u32::MAX);
                let replayed = chain
                    .first()
                    .and_then(|first| system.replay(first, core, golden_seed));
                replayed_golden = replayed.is_some();
                #[expect(
                    clippy::expect_used,
                    reason = "a board in its power-on state at nominal V/F is responsive"
                )]
                let record = replayed.unwrap_or_else(|| {
                    system
                        .run(program.as_ref(), core, golden_seed)
                        .expect("a board in its power-on state is responsive")
                });
                assert_eq!(
                    record.outcome,
                    margins_sim::RunOutcome::Completed,
                    "golden run at nominal must complete"
                );
                tallies.record_run(
                    Phase::GoldenRun,
                    record.instructions,
                    record.fault_samples,
                    (record.corrected_errors + record.uncorrected_errors) as u64,
                );
                let entry = GoldenEntry {
                    digest: record.digest.value(),
                    runtime_s: record.runtime_s,
                };
                if cache.is_some() {
                    fresh_golden = Some((golden_key, entry.clone()));
                }
                if chain.is_empty() && record.fault_free.is_some() {
                    chain.push(record);
                }
                entry
            }
        };
        let golden = OutputDigest::from_value(golden_entry.digest);
        note(buffer, || TraceEvent::GoldenCaptured {
            program: bench.name.clone(),
            dataset: dataset.to_owned(),
            core: core_u8,
            digest: golden.to_string(),
            runtime_s: golden_entry.runtime_s,
        });

        let steps = self.config.step_count();
        let prior = priors
            .and_then(|p| p.get(&bench.name, dataset, core))
            .map(|p| p.on_grid(self.config.start_voltage));
        let mut plan = SearchPlan::for_strategy(
            self.config.search,
            steps,
            self.config.crash_stop_steps,
            prior,
        );
        let adaptive = self.config.search.is_adaptive();
        let mut runs: Vec<ClassifiedRun> = Vec::new();

        while let Some(step) = plan.next_step() {
            let voltage = self.config.start_voltage.down_steps(step);
            // The rails during the step's runs: the swept one at `voltage`,
            // the other at nominal.
            let (pmd_mv, soc_mv) = match self.config.rail {
                SweptRail::Pmd => (voltage, SOC_NOMINAL),
                SweptRail::PcpSoc => (PMD_NOMINAL, voltage),
            };
            let step_key = StepKey {
                chip: chip.clone(),
                rail: self.config.rail.label().to_owned(),
                target_mhz: self.config.target_frequency.get(),
                parked_mhz: PARKED_FREQUENCY.get(),
                enhancements,
                seed: self.config.seed,
                iterations: self.config.iterations,
                program: bench.name.clone(),
                dataset: dataset.to_owned(),
                core: core_u8,
                mv: voltage.get(),
            };
            let cached_step = cache.and_then(|c| c.step(&step_key)).cloned();
            look_up(&mut tallies, "step", voltage.get(), cached_step.is_some());
            // The step's rows, whichever source answers it.
            let first = runs.len();
            if let Some(entry) = cached_step {
                // Replay. The original probe ran on a board in its
                // power-on state with seeds derived only from campaign
                // coordinates, so its stored per-iteration outcomes are
                // exactly what executing the probe now would produce.
                cache_hits += 1;
                for (iteration, run) in (0..).zip(entry.runs) {
                    let row = ClassifiedRun {
                        program: bench.name.clone(),
                        dataset: dataset.to_owned(),
                        core,
                        pmd_mv,
                        soc_mv,
                        freq: self.config.target_frequency,
                        iteration,
                        effects: run.effects,
                        corrected_errors: run.corrected_errors as usize,
                        uncorrected_errors: run.uncorrected_errors as usize,
                        runtime_s: run.runtime_s,
                        energy_j: run.energy_j,
                    };
                    push_run(&mut runs, row, voltage, buffer);
                }
                for _ in 0..entry.power_cycles {
                    recoveries += 1;
                    let recovery = recoveries;
                    note(buffer, || TraceEvent::WatchdogPowerCycle { recovery });
                }
            } else {
                if adaptive {
                    let phase = plan.phase();
                    note(buffer, || TraceEvent::SearchStep {
                        program: bench.name.clone(),
                        core: core_u8,
                        strategy: self.config.search.name().to_owned(),
                        phase: phase.to_owned(),
                        step,
                        mv: voltage.get(),
                    });
                }
                machine_probes += 1;
                let recoveries_before = recoveries;
                let system = self.fresh_board(&mut board, buffer);
                self.apply_reliable_cores_setup(system, core);
                note(buffer, || TraceEvent::VoltageStepped {
                    rail: self.config.rail.label().to_owned(),
                    mv: voltage.get(),
                    step,
                });
                let seeds: Vec<u64> = (0..self.config.iterations)
                    .map(|iteration| {
                        run_seed(
                            self.config.seed,
                            &bench.name,
                            dataset,
                            core,
                            voltage.get(),
                            iteration,
                        )
                    })
                    .collect();
                let replayed = chain.len() >= seeds.len() && {
                    let runs: Vec<(&RunRecord, u64)> =
                        chain.iter().zip(seeds.iter().copied()).collect();
                    system.replays_cleanly(&runs, core, pmd_mv, soc_mv)
                };
                replayed_steps += u32::from(replayed);
                // Runs 0..iteration of this probe were all fault-free.
                let mut clean_prefix = true;
                for (iteration, &seed) in (0..).zip(&seeds) {
                    if watchdog::recover(system, &mut recoveries) {
                        // Recovery wiped the V/F setup; reapply it.
                        self.apply_reliable_cores_setup(system, core);
                    }
                    self.set_swept_rail(system, voltage);
                    #[expect(
                        clippy::expect_used,
                        reason = "watchdog::recover() ran this iteration, \
                                  and replays_cleanly() certified every replay of the probe"
                    )]
                    let record = if replayed {
                        system
                            .replay(&chain[iteration as usize], core, seed)
                            .expect("certified before the probe")
                    } else {
                        system
                            .run(program.as_ref(), core, seed)
                            .expect("ensured responsive before the run")
                    };
                    // Safe data collection: restore nominal before
                    // persisting the log (§2.2.1) — only possible if the
                    // board survived.
                    if system.is_responsive() {
                        self.set_swept_rail(system, self.config.rail.nominal());
                    }
                    tallies.record_run(
                        if adaptive {
                            Phase::SearchStep
                        } else {
                            Phase::Probe
                        },
                        record.instructions,
                        record.fault_samples,
                        (record.corrected_errors + record.uncorrected_errors) as u64,
                    );
                    let row = classify_run(&record, Some(golden), iteration);
                    push_run(&mut runs, row, voltage, buffer);
                    clean_prefix &= record.fault_free.is_some();
                    if clean_prefix && !replayed && chain.len() == iteration as usize {
                        chain.push(record);
                    }
                }
                // Recover a trailing hang inside the probe that caused it,
                // so the probe's power-cycle count — and thus its cache
                // entry and trace — never depends on what runs next.
                watchdog::recover(system, &mut recoveries);
                if cache.is_some() {
                    let runs = runs[first..]
                        .iter()
                        .map(|run| CachedRun {
                            effects: run.effects,
                            corrected_errors: run.corrected_errors as u64,
                            uncorrected_errors: run.uncorrected_errors as u64,
                            runtime_s: run.runtime_s,
                            energy_j: run.energy_j,
                        })
                        .collect();
                    fresh_steps.push((
                        step_key,
                        StepEntry {
                            runs,
                            power_cycles: recoveries - recoveries_before,
                        },
                    ));
                }
            }
            plan.record(
                step,
                StepVerdict::of(runs[first..].iter().map(|r| r.effects)),
            );
        }

        if let Some((stop_step, consecutive_all_sc)) = plan.early_stop() {
            note(buffer, || TraceEvent::EarlyStop {
                program: bench.name.clone(),
                core: core_u8,
                mv: self.config.start_voltage.down_steps(stop_step).get(),
                consecutive_all_sc,
            });
        }
        if adaptive {
            note(buffer, || TraceEvent::SearchConcluded {
                program: bench.name.clone(),
                core: core_u8,
                strategy: self.config.search.name().to_owned(),
                probed_steps: machine_probes,
                grid_steps: steps,
                cache_hits,
            });
        }
        // `recoveries` counts replayed power cycles too, so board-init
        // work matches between cold and warm runs of the same campaign.
        tallies.record_recoveries(u64::from(recoveries));
        chains::give_back(chain_key, chain);
        TracedItem {
            events: Vec::new(),
            golden_key: (bench.name.clone(), dataset.to_owned()),
            golden,
            runs,
            power_cycles: recoveries,
            fresh_golden,
            fresh_steps,
            profile: tallies,
            replayed_golden,
            replayed_steps,
        }
    }

    /// Sets the swept rail to `voltage`: a step's voltage before each run,
    /// the rail's nominal after it.
    #[expect(
        clippy::expect_used,
        reason = "sweep grid validated at config build time; nominal is always valid"
    )]
    fn set_swept_rail(&self, system: &mut System, voltage: Millivolts) {
        let mut slimpro = system.slimpro_mut();
        match self.config.rail {
            SweptRail::Pmd => slimpro
                .set_pmd_voltage(voltage)
                .expect("sweep and nominal voltages are valid"),
            SweptRail::PcpSoc => slimpro
                .set_soc_voltage(voltage)
                .expect("sweep and nominal voltages are valid"),
        }
    }

    /// The reliable-cores setup of §2.2.1.
    fn apply_reliable_cores_setup(&self, system: &mut System, core: CoreId) {
        let target_pmd = core.pmd();
        let mut slimpro = system.slimpro_mut();
        for pmd in PmdId::all() {
            let f = if pmd == target_pmd {
                self.config.target_frequency
            } else {
                PARKED_FREQUENCY
            };
            #[expect(
                clippy::expect_used,
                reason = "frequencies validated at config build time"
            )]
            slimpro
                .set_pmd_frequency(pmd, f)
                .expect("frequencies validated at config build time");
        }
    }
}

impl CampaignOutcome {
    /// Merges several campaigns of the *same chip and configuration shape*
    /// into one outcome whose iteration space is the concatenation of the
    /// inputs — the paper's methodology of "running the entire
    /// time-consuming undervolting experiment ten times for each benchmark
    /// … during 6 months" (§3.2) and aggregating.
    ///
    /// Iteration indices of later campaigns are shifted so every run keeps
    /// a unique (benchmark, core, voltage, iteration) coordinate; the
    /// merged `config.iterations` is the sum.
    ///
    /// # Errors
    ///
    /// Returns [`MergeError`] when the campaigns disagree on chip, rail,
    /// voltage grid or frequency setup.
    pub fn merge<I>(outcomes: I) -> Result<CampaignOutcome, MergeError>
    where
        I: IntoIterator<Item = CampaignOutcome>,
    {
        let mut iter = outcomes.into_iter();
        let mut merged = iter.next().ok_or(MergeError::Empty)?;
        for outcome in iter {
            if outcome.spec != merged.spec {
                return Err(MergeError::ChipMismatch);
            }
            let a = &merged.config;
            let b = &outcome.config;
            if a.start_voltage != b.start_voltage
                || a.floor_voltage != b.floor_voltage
                || a.target_frequency != b.target_frequency
                || a.rail != b.rail
                || a.enhancements != b.enhancements
            {
                return Err(MergeError::ConfigMismatch);
            }
            let offset = merged.config.iterations;
            merged.config.iterations += outcome.config.iterations;
            merged.runs.extend(outcome.runs.into_iter().map(|mut r| {
                r.iteration += offset;
                r
            }));
            merged.goldens.extend(outcome.goldens);
            merged.watchdog_power_cycles += outcome.watchdog_power_cycles;
        }
        sort_canonically(&mut merged.runs, merged.config.rail);
        Ok(merged)
    }
}

/// Error merging campaign outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeError {
    /// No outcomes were provided.
    Empty,
    /// The campaigns characterized different chips.
    ChipMismatch,
    /// The campaigns used incompatible configurations.
    ConfigMismatch,
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Empty => f.write_str("no campaign outcomes to merge"),
            MergeError::ChipMismatch => f.write_str("campaigns characterized different chips"),
            MergeError::ConfigMismatch => f.write_str("campaigns used incompatible configurations"),
        }
    }
}

impl std::error::Error for MergeError {}

/// One completed work item, as delivered from an executor to the merge
/// loop of [`Campaign::run`]: the item's staged trace events plus its
/// share of the outcome.
#[derive(Debug)]
pub(crate) struct TracedItem {
    events: Vec<TraceEvent>,
    golden_key: (String, String),
    golden: OutputDigest,
    runs: Vec<ClassifiedRun>,
    power_cycles: u32,
    fresh_golden: Option<(GoldenKey, GoldenEntry)>,
    fresh_steps: Vec<(StepKey, StepEntry)>,
    profile: PhaseTallies,
    /// Whether [`System::replay`] answered the golden run; reaches no
    /// output.
    #[cfg_attr(
        not(test),
        expect(dead_code, reason = "read only by this module's tests")
    )]
    replayed_golden: bool,
    /// Probes answered by [`System::replay`]; reaches no output.
    #[cfg_attr(
        not(test),
        expect(dead_code, reason = "read only by this module's tests")
    )]
    replayed_steps: u32,
}

/// Sorts runs into the outcome's canonical order: program, dataset, core,
/// swept voltage descending, iteration.
fn sort_canonically(runs: &mut [ClassifiedRun], rail: SweptRail) {
    runs.sort_by(|a, b| {
        (
            &a.program,
            &a.dataset,
            a.core,
            std::cmp::Reverse(a.swept_mv(rail)),
            a.iteration,
        )
            .cmp(&(
                &b.program,
                &b.dataset,
                b.core,
                std::cmp::Reverse(b.swept_mv(rail)),
                b.iteration,
            ))
    });
}

/// Seals `event` into the canonical stream and fans it out to every sink.
fn emit_record(finalizer: &mut StreamFinalizer, sinks: &mut [&mut dyn Sink], event: TraceEvent) {
    let record = finalizer.seal(event);
    for sink in sinks.iter_mut() {
        sink.emit(&record);
    }
}

/// Stages a runner-level event into the item's buffer, building it only
/// when the item is traced.
fn note(buffer: Option<&Arc<EventBuffer>>, event: impl FnOnce() -> TraceEvent) {
    if let Some(buffer) = buffer {
        buffer.record(event());
    }
}

/// Notes `run`'s `RunCompleted` at swept voltage `mv` and appends it to
/// the item's rows, whether the cache or the board answered it.
fn push_run(
    runs: &mut Vec<ClassifiedRun>,
    run: ClassifiedRun,
    mv: Millivolts,
    buffer: Option<&Arc<EventBuffer>>,
) {
    note(buffer, || TraceEvent::RunCompleted {
        program: run.program.clone(),
        dataset: run.dataset.clone(),
        core: run.core.index() as u8,
        mv: mv.get(),
        iteration: run.iteration,
        effects: run.effects.to_string(),
        severity: SeverityWeights::paper().run_severity(run.effects),
        runtime_s: run.runtime_s,
        energy_j: run.energy_j,
        corrected_errors: run.corrected_errors as u64,
        uncorrected_errors: run.uncorrected_errors as u64,
    });
    runs.push(run);
}

/// A nominal-conditions workload profile (Figure 6, phase 2): the full PMU
/// counter file plus the golden digest.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Benchmark name.
    pub name: String,
    /// Dataset label.
    pub dataset: String,
    /// PMU counters of the nominal run.
    pub counters: CounterFile,
    /// Golden output digest.
    pub golden: OutputDigest,
    /// Modelled runtime at nominal conditions, seconds.
    pub runtime_s: f64,
    /// Modelled cycles.
    pub cycles: u64,
}

/// Error returned by [`profile`] when a benchmark name is not in the
/// workload suite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownBenchmark {
    /// The unresolvable benchmark name.
    pub name: String,
    /// Suite benchmarks closest to the unresolvable name (best first).
    pub suggestions: Vec<String>,
}

impl UnknownBenchmark {
    /// An error for `name`, with near-miss suggestions from the suite.
    #[must_use]
    fn new(name: &str) -> Self {
        UnknownBenchmark {
            name: name.to_owned(),
            suggestions: suggest_benchmarks(name),
        }
    }
}

impl std::fmt::Display for UnknownBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown benchmark '{}'", self.name)?;
        if let Some((first, rest)) = self.suggestions.split_first() {
            write!(f, " (did you mean '{first}'")?;
            for s in rest {
                write!(f, ", '{s}'")?;
            }
            write!(f, "?)")?;
        }
        Ok(())
    }
}

impl std::error::Error for UnknownBenchmark {}

/// Suite names close to `name`: within edit distance 2, or sharing a
/// substring with it. At most three, best matches first.
fn suggest_benchmarks(name: &str) -> Vec<String> {
    let needle = name.to_ascii_lowercase();
    let mut scored: Vec<(usize, &str)> = margins_workloads::suite::ALL_NAMES
        .iter()
        .filter_map(|candidate| {
            let distance = edit_distance(&needle, candidate);
            let related = distance <= 2
                || (!needle.is_empty()
                    && (candidate.contains(&needle) || needle.contains(candidate)));
            related.then_some((distance, *candidate))
        })
        .collect();
    scored.sort();
    scored
        .into_iter()
        .take(3)
        .map(|(_, n)| n.to_owned())
        .collect()
}

/// Levenshtein distance via the single-row dynamic program.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diagonal = row[0];
        row[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let substitution = diagonal + usize::from(ca != *cb);
            diagonal = row[j + 1];
            row[j + 1] = substitution.min(diagonal + 1).min(row[j] + 1);
        }
    }
    row[b.len()]
}

/// Profiles `benchmarks` at nominal conditions on `core` of a fresh chip
/// (§4.1: "collecting the performance counters of the entire benchmarks
/// using perf").
///
/// # Errors
///
/// Returns [`UnknownBenchmark`] when a benchmark name does not resolve in
/// `margins_workloads::suite` — unlike campaign execution, `profile` takes
/// benchmark lists that never went through config validation.
pub fn profile(
    spec: ChipSpec,
    benchmarks: &[BenchmarkRef],
    core: CoreId,
) -> Result<Vec<WorkloadProfile>, UnknownBenchmark> {
    let mut system = System::new(spec, SystemConfig::default());
    benchmarks
        .iter()
        .map(|b| {
            let program = margins_workloads::suite::by_name(&b.name, b.dataset)
                .ok_or_else(|| UnknownBenchmark::new(&b.name))?;
            #[expect(
                clippy::expect_used,
                reason = "a fresh system at nominal V/F is responsive"
            )]
            let record = system
                .run(program.as_ref(), core, 0x0090_F11E)
                .expect("nominal profiling never crashes the board");
            Ok(WorkloadProfile {
                name: b.name.clone(),
                dataset: b.dataset.label().to_owned(),
                counters: record.counters,
                golden: record.digest,
                runtime_s: record.runtime_s,
                cycles: record.cycles,
            })
        })
        .collect()
}

/// Deterministic per-run seed from the campaign coordinates.
fn run_seed(base: u64, name: &str, dataset: &str, core: CoreId, mv: u32, iteration: u32) -> u64 {
    name.bytes()
        .chain([0xFF])
        .chain(dataset.bytes())
        .map(u64::from)
        .chain([
            (core.index() as u64) << 32,
            u64::from(mv) << 8,
            u64::from(iteration),
        ])
        .fold(base ^ 0x517C_C1B7_2722_0A95, |h, x| {
            splitmix64(&mut (h ^ x))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effect::Effect;
    use crate::exec::{SerialExecutor, ThreadPoolExecutor};
    use margins_sim::{Corner, Enhancements, Millivolts};

    fn tiny_config(bench: &str, core: u8, hi: u32, lo: u32, iters: u32) -> CampaignConfig {
        CampaignConfig::builder()
            .benchmarks([bench])
            .cores([CoreId::new(core)])
            .iterations(iters)
            .start_voltage(Millivolts::new(hi))
            .floor_voltage(Millivolts::new(lo))
            .seed(7)
            .build()
            .unwrap()
    }

    #[test]
    fn safe_band_sweep_is_all_normal() {
        // namd on the robust core: Vmin ≈ 867, so [890, 880] is safe.
        let cfg = tiny_config("namd", 4, 890, 880, 3);
        let out = Campaign::new(ChipSpec::new(Corner::Ttt, 0), cfg)
            .run(&SerialExecutor, ExecContext::new())
            .unwrap();
        assert_eq!(out.runs.len(), 3 * 3);
        assert!(out.runs.iter().all(|r| r.effects.is_normal()));
        assert_eq!(out.watchdog_power_cycles, 0);
    }

    #[test]
    fn deep_sweep_reaches_crashes_and_recovers() {
        let cfg = tiny_config("bwaves", 0, 890, 840, 2);
        let out = Campaign::new(ChipSpec::new(Corner::Ttt, 0), cfg)
            .run(&SerialExecutor, ExecContext::new())
            .unwrap();
        let any_sc = out.runs.iter().any(|r| r.effects.contains(Effect::Sc));
        assert!(any_sc, "sweeping bwaves to 840mV on core 0 must crash");
        assert!(
            out.watchdog_power_cycles > 0,
            "watchdog must have recovered"
        );
        // The early-stop keeps the sweep from sweeping all 11 steps blindly.
        let swept: std::collections::BTreeSet<Millivolts> =
            out.runs.iter().map(|r| r.pmd_mv).collect();
        assert!(swept.len() <= 11);
    }

    #[test]
    fn abnormal_effects_appear_below_vmin() {
        // bwaves on sensitive core 0: Vmin ≈ 905; sweep through it.
        let cfg = tiny_config("bwaves", 0, 915, 885, 4);
        let out = Campaign::new(ChipSpec::new(Corner::Ttt, 0), cfg)
            .run(&SerialExecutor, ExecContext::new())
            .unwrap();
        let abnormal = out.runs.iter().filter(|r| !r.effects.is_normal()).count();
        assert!(abnormal > 0, "sweeping through Vmin must expose effects");
        // And the top of the sweep is still clean.
        assert!(out
            .runs
            .iter()
            .filter(|r| r.pmd_mv == Millivolts::new(915))
            .all(|r| r.effects.is_normal()));
    }

    #[test]
    fn replayed_steps_match_simulated_ones() {
        // Every step of a single-step campaign is simulated: its chain
        // holds only the golden run, shorter than the iterations. In the
        // sweeps, each step below the first fault-free one replays until
        // runs start to fault, and must classify identically, counters
        // included.
        let sweeps = [
            ("bwaves", 0, 930, 885, SweptRail::Pmd, Enhancements::stock()),
            ("namd", 4, 900, 860, SweptRail::Pmd, Enhancements::all()),
            ("mcf", 0, 950, 720, SweptRail::PcpSoc, Enhancements::stock()),
        ];
        for (bench, core, start, floor, rail, enhancements) in sweeps {
            let config = |start: u32, floor: u32| {
                CampaignConfig::builder()
                    .benchmarks([bench])
                    .cores([CoreId::new(core)])
                    .iterations(3)
                    .start_voltage(Millivolts::new(start))
                    .floor_voltage(Millivolts::new(floor))
                    .rail(rail)
                    .enhancements(enhancements)
                    .seed(11)
                    .build()
                    .unwrap()
            };
            let spec = ChipSpec::new(Corner::Ttt, 0);
            let sweep = Campaign::new(spec, config(start, floor));
            let item = sweep.characterize_item(
                &sweep.config.benchmarks[0],
                CoreId::new(core),
                None,
                None,
                None,
            );
            assert!(
                item.replayed_steps > 0,
                "{bench}: no step of the sweep replayed"
            );
            let swept: std::collections::BTreeSet<Millivolts> =
                item.runs.iter().map(|r| r.swept_mv(rail)).collect();
            for mv in swept {
                // On a fresh thread: this one holds the sweep's chain, from
                // which the reference would replay too.
                let single = Campaign::new(spec, config(mv.get(), mv.get()));
                let (single, replays) =
                    on_fresh_thread(|| run_counted(&single, ExecContext::new()));
                assert_eq!(replays, [(false, 0)], "{bench} at {mv}: not simulated");
                let replayed: Vec<&ClassifiedRun> = item
                    .runs
                    .iter()
                    .filter(|r| r.swept_mv(rail) == mv)
                    .collect();
                let simulated: Vec<&ClassifiedRun> = single.runs.iter().collect();
                assert_eq!(replayed, simulated, "{bench} at {mv}");
            }
        }
    }

    /// Runs items in order on the calling thread, as [`SerialExecutor`]
    /// does, and notes for each whether its golden run replayed and how
    /// many of its steps did.
    #[derive(Default)]
    struct ReplayCounter(std::sync::Mutex<Vec<(bool, u32)>>);

    impl CampaignExecutor for ReplayCounter {
        fn label(&self) -> &'static str {
            "replay-counter"
        }

        fn run_items(
            &self,
            task: &ItemTask<'_>,
            deliver: &mut dyn FnMut(crate::exec::ItemOutput),
        ) -> Result<(), ExecError> {
            for item in task.items() {
                let output = task.run_item(item);
                let traced = output.item();
                let replays = (traced.replayed_golden, traced.replayed_steps);
                self.0.lock().unwrap().push(replays);
                deliver(output);
            }
            Ok(())
        }
    }

    /// Runs `campaign` on the calling thread; with the outcome, per item,
    /// whether its golden run replayed and how many of its steps did.
    fn run_counted(
        campaign: &Campaign,
        ctx: ExecContext<'_, '_>,
    ) -> (CampaignOutcome, Vec<(bool, u32)>) {
        let counter = ReplayCounter::default();
        let outcome = campaign.run(&counter, ctx).unwrap();
        (outcome, counter.0.into_inner().unwrap())
    }

    /// Runs `f` on a new thread, whose memo of replay chains is empty.
    fn on_fresh_thread<T: Send>(f: impl FnOnce() -> T + Send) -> T {
        std::thread::scope(|scope| scope.spawn(f).join().unwrap())
    }

    /// What a campaign writes, traced and profiled.
    struct Written {
        jsonl: Vec<u8>,
        /// `runs.csv`, `regions.csv` and `severity.csv`.
        csvs: [String; 3],
        tallies: PhaseTallies,
    }

    /// What `campaign` writes, run on the calling thread, and its replay
    /// counts.
    fn artifacts(campaign: &Campaign) -> (Written, Vec<(bool, u32)>) {
        let mut jsonl = margins_trace::JsonlSink::new(Vec::new());
        let mut tallies = PhaseTallies::new();
        let (outcome, replays) = {
            let mut sinks: [&mut dyn Sink; 1] = [&mut jsonl];
            let ctx = ExecContext {
                sinks: &mut sinks,
                profile_out: Some(&mut tallies),
                ..ExecContext::new()
            };
            run_counted(campaign, ctx)
        };
        let result = crate::regions::analyze(&outcome, &SeverityWeights::paper());
        let written = Written {
            jsonl: jsonl.into_inner().unwrap(),
            csvs: [
                crate::report::runs_csv(&outcome),
                crate::report::regions_csv(&result),
                crate::report::severity_csv(&result),
            ],
            tallies,
        };
        (written, replays)
    }

    #[test]
    fn chains_carry_across_campaigns_and_move_no_byte() {
        let campaign = |corner, serial, core, seed| {
            let config = CampaignConfig::builder()
                .benchmarks(["namd"])
                .cores([CoreId::new(core)])
                .iterations(3)
                .start_voltage(Millivolts::new(930))
                .floor_voltage(Millivolts::new(860))
                .seed(seed)
                .profile(true)
                .build()
                .unwrap();
            Campaign::new(ChipSpec::new(corner, serial), config)
        };
        let first = campaign(Corner::Ttt, 0, 4, 7);
        let second = campaign(Corner::Tss, 3, 1, 11);
        let (fresh, fresh_replays) = on_fresh_thread(|| artifacts(&second));
        let (after, after_replays) = on_fresh_thread(|| {
            let _ = artifacts(&first);
            artifacts(&second)
        });
        // On a fresh thread the golden run simulates, and so does the first
        // step, which extends the chain to the iterations. After the first
        // campaign, on another chip and core with another seed, both replay.
        let [(false, steps)] = fresh_replays[..] else {
            panic!("fresh thread: {fresh_replays:?}");
        };
        assert!(steps > 0, "no step of the sweep replayed");
        assert_eq!(after_replays, [(true, steps + 1)]);
        assert!(after.jsonl == fresh.jsonl, "the JSONL traces differ");
        assert_eq!(after.csvs, fresh.csvs);
        assert_eq!(after.tallies, fresh.tallies);
    }

    #[test]
    fn chains_never_cross_enhancement_sets() {
        let campaign = |enhancements| {
            let config = CampaignConfig::builder()
                .benchmarks(["namd"])
                .cores([CoreId::new(0)])
                .iterations(2)
                .start_voltage(Millivolts::new(930))
                .floor_voltage(Millivolts::new(900))
                .enhancements(enhancements)
                .seed(7)
                .build()
                .unwrap();
            Campaign::new(ChipSpec::new(Corner::Ttt, 0), config)
        };
        let enhanced = campaign(Enhancements::all());
        let (fresh, fresh_replays) = on_fresh_thread(|| run_counted(&enhanced, ExecContext::new()));
        let (after, after_replays) = on_fresh_thread(|| {
            let (_, stock) = run_counted(&campaign(Enhancements::stock()), ExecContext::new());
            assert!(stock[0].1 > 0, "the stock campaign built no chain");
            run_counted(&enhanced, ExecContext::new())
        });
        assert!(!after_replays[0].0, "the golden run replayed a stock run");
        assert_eq!(after_replays, fresh_replays);
        assert_eq!(after.runs, fresh.runs);
    }

    #[test]
    fn cached_rerun_hits_and_preserves_outcome() {
        let cfg = tiny_config("bwaves", 0, 915, 885, 2);
        let campaign = Campaign::new(ChipSpec::new(Corner::Ttt, 0), cfg);
        let plain = campaign.run(&SerialExecutor, ExecContext::new()).unwrap();

        let mut cache = CampaignCache::new();
        let ctx = ExecContext {
            cache: Some(CacheHandle::Owned(&mut cache)),
            ..ExecContext::new()
        };
        let cold = campaign.run(&SerialExecutor, ctx).unwrap();
        assert!(!cache.is_empty(), "cold run must populate the cache");

        let mut cache_after = cache.clone();
        let ctx = ExecContext {
            cache: Some(CacheHandle::Owned(&mut cache_after)),
            ..ExecContext::new()
        };
        let warm = campaign.run(&SerialExecutor, ctx).unwrap();
        assert_eq!(
            cache.to_jsonl(),
            cache_after.to_jsonl(),
            "a fully-cached rerun must not grow the cache"
        );

        for outcome in [&cold, &warm] {
            assert_eq!(outcome.runs, plain.runs);
            assert_eq!(outcome.goldens, plain.goldens);
            assert_eq!(outcome.watchdog_power_cycles, plain.watchdog_power_cycles);
        }
    }

    #[test]
    fn power_cycles_agree_in_every_plane_cold_and_warm() {
        // Deep enough to hang the board over and over: 39 power cycles at
        // the CLI's default seed.
        let cfg = CampaignConfig::builder()
            .benchmarks(["bwaves"])
            .cores([CoreId::new(0), CoreId::new(4)])
            .iterations(4)
            .start_voltage(Millivolts::new(900))
            .floor_voltage(Millivolts::new(820))
            .seed(0xCAFE_BABE)
            .profile(true)
            .build()
            .unwrap();
        let campaign = Campaign::new(ChipSpec::new(Corner::Ttt, 0), cfg);
        let mut cache = CampaignCache::new();
        let mut cold_entries = None;
        for leg in ["cold", "warm"] {
            let mut memory = margins_trace::MemorySink::new();
            let mut tallies = PhaseTallies::new();
            let outcome = {
                let mut sinks: [&mut dyn Sink; 1] = [&mut memory];
                let ctx = ExecContext {
                    sinks: &mut sinks,
                    cache: Some(CacheHandle::Owned(&mut cache)),
                    profile_out: Some(&mut tallies),
                    ..ExecContext::new()
                };
                campaign.run(&SerialExecutor, ctx).unwrap()
            };
            let cycles = outcome.watchdog_power_cycles;
            assert!(cycles > 0, "{leg}: the sweeps must hang the board");
            let machine_steps = memory
                .records
                .iter()
                .filter(|r| matches!(r.event, TraceEvent::VoltageStepped { .. }))
                .count();
            assert_eq!(leg == "cold", machine_steps > 0, "{leg}: probe source");

            // Each sweep numbers its power cycles 1..=n.
            let mut ordinals: Vec<Vec<u32>> = Vec::new();
            for record in &memory.records {
                match &record.event {
                    TraceEvent::SweepStarted { .. } => ordinals.push(Vec::new()),
                    TraceEvent::WatchdogPowerCycle { recovery } => {
                        ordinals.last_mut().expect("inside a sweep").push(*recovery);
                    }
                    _ => {}
                }
            }
            assert_eq!(ordinals.len(), 2, "{leg}: one sweep per core");
            for sweep in &ordinals {
                assert!(
                    sweep.iter().copied().eq(1..=sweep.len() as u32),
                    "{leg}: {sweep:?}"
                );
            }
            let traced: usize = ordinals.iter().map(Vec::len).sum();
            assert_eq!(traced, cycles as usize, "{leg}: trace");
            assert_eq!(
                tallies.get(Phase::BoardInit).recoveries,
                u64::from(cycles),
                "{leg}: profile"
            );
            // The cold leg stored every cycle in its step entries, which
            // the warm leg replays.
            let stored = *cold_entries
                .get_or_insert_with(|| cache.steps().map(|(_, e)| e.power_cycles).sum::<u32>());
            assert_eq!(stored, cycles, "{leg}: cache");
        }
    }

    #[test]
    fn profiles_cover_all_counters_and_goldens() {
        let benches = vec![
            BenchmarkRef {
                name: "namd".into(),
                dataset: margins_workloads::Dataset::Ref,
            },
            BenchmarkRef {
                name: "mcf".into(),
                dataset: margins_workloads::Dataset::Ref,
            },
        ];
        let profiles =
            profile(ChipSpec::new(Corner::Ttt, 0), &benches, CoreId::new(0)).expect("suite names");
        assert_eq!(profiles.len(), 2);
        for p in &profiles {
            assert!(p.counters.get(margins_sim::PmuEvent::InstRetired) > 0);
            assert!(p.cycles > 0);
        }
        assert_ne!(profiles[0].golden, profiles[1].golden);
    }

    #[test]
    fn profiling_unknown_benchmark_is_an_error_not_a_panic() {
        let benches = vec![BenchmarkRef {
            name: "no-such-benchmark".into(),
            dataset: margins_workloads::Dataset::Ref,
        }];
        let err = profile(ChipSpec::new(Corner::Ttt, 0), &benches, CoreId::new(0)).unwrap_err();
        assert_eq!(err.name, "no-such-benchmark");
        assert!(err.to_string().contains("no-such-benchmark"));
    }

    #[test]
    fn unknown_benchmark_suggests_near_misses() {
        let err = UnknownBenchmark::new("namd2");
        assert_eq!(err.suggestions.first().map(String::as_str), Some("namd"));
        let rendered = err.to_string();
        assert!(rendered.contains("unknown benchmark 'namd2'"), "{rendered}");
        assert!(rendered.contains("did you mean 'namd'"), "{rendered}");

        let hopeless = UnknownBenchmark::new("zzzzzz");
        assert!(hopeless.suggestions.is_empty());
        assert!(!hopeless.to_string().contains("did you mean"));
    }

    #[test]
    fn traced_execution_streams_a_valid_stream_and_matches_outcome() {
        let cfg = tiny_config("bwaves", 0, 915, 895, 2);
        let campaign = Campaign::new(ChipSpec::new(Corner::Ttt, 0), cfg);

        let mut memory = margins_trace::MemorySink::new();
        let mut jsonl = margins_trace::JsonlSink::new(Vec::new());
        let traced = {
            let mut sinks: [&mut dyn margins_trace::Sink; 2] = [&mut memory, &mut jsonl];
            let ctx = ExecContext {
                sinks: &mut sinks,
                ..ExecContext::new()
            };
            campaign.run(&SerialExecutor, ctx).unwrap()
        };
        let untraced = campaign.run(&SerialExecutor, ExecContext::new()).unwrap();

        // Tracing must not perturb campaign results.
        assert_eq!(traced.runs.len(), untraced.runs.len());
        for (a, b) in traced.runs.iter().zip(&untraced.runs) {
            assert_eq!(
                (&a.program, a.core, a.pmd_mv, a.iteration),
                (&b.program, b.core, b.pmd_mv, b.iteration)
            );
            assert_eq!(a.effects, b.effects);
        }
        assert_eq!(traced.goldens, untraced.goldens);
        assert_eq!(traced.watchdog_power_cycles, untraced.watchdog_power_cycles);

        // The serialized stream validates structurally.
        let bytes = jsonl.into_inner().expect("in-memory writer");
        let text = String::from_utf8(bytes).expect("utf8");
        let stats = margins_trace::validate_jsonl(&text).expect("structurally valid stream");
        assert_eq!(stats.records as usize, memory.records.len());
        assert_eq!(stats.runs as usize, traced.runs.len());
        assert_eq!(stats.campaigns, 1);
        assert_eq!(stats.sweeps, 1);
        assert_eq!(stats.power_cycles, u64::from(traced.watchdog_power_cycles));

        // Per-run events carry classification and severity verbatim.
        let weights = SeverityWeights::paper();
        let completed: Vec<_> = memory
            .records
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::RunCompleted {
                    effects, severity, ..
                } => Some((effects.clone(), *severity)),
                _ => None,
            })
            .collect();
        assert_eq!(completed.len(), traced.runs.len());
        for ((effects, severity), run) in completed.iter().zip(&traced.runs) {
            assert_eq!(*effects, run.effects.to_string());
            assert!((severity - weights.run_severity(run.effects)).abs() < 1e-12);
        }
    }

    #[test]
    fn metered_execution_matches_a_replay_of_the_sink_stream() {
        let cfg = CampaignConfig::builder()
            .benchmarks(["bwaves", "namd"])
            .cores([CoreId::new(0), CoreId::new(4)])
            .iterations(1)
            .start_voltage(Millivolts::new(915))
            .floor_voltage(Millivolts::new(895))
            .seed(7)
            .build()
            .unwrap();
        let campaign = Campaign::new(ChipSpec::new(Corner::Ttt, 0), cfg);

        // The registry sees the same stream other sinks do.
        let mut memory = margins_trace::MemorySink::new();
        let mut metered = margins_trace::MetricsRegistry::new();
        let outcome = {
            let mut sinks: [&mut dyn margins_trace::Sink; 1] = [&mut memory];
            let ctx = ExecContext {
                sinks: &mut sinks,
                metrics: Some(&mut metered),
                ..ExecContext::new()
            };
            campaign.run(&SerialExecutor, ctx).unwrap()
        };
        let mut replayed = margins_trace::MetricsRegistry::new();
        for record in &memory.records {
            margins_trace::Sink::emit(&mut replayed, record);
        }
        margins_trace::Sink::finish(&mut replayed);
        let exposition = metered.to_openmetrics();
        assert_eq!(exposition, replayed.to_openmetrics());
        assert!(
            exposition.contains("voltmargin_campaigns_total 1"),
            "{exposition}"
        );
        assert!(
            exposition.contains("voltmargin_sweeps_total 4"),
            "{exposition}"
        );
        assert!(exposition.ends_with("# EOF\n"), "{exposition}");

        // Metering must not perturb campaign results.
        let plain = campaign.run(&SerialExecutor, ExecContext::new()).unwrap();
        assert_eq!(outcome.runs, plain.runs);
    }

    #[test]
    fn profiled_stream_is_byte_identical_serial_vs_sharded() {
        let cfg = CampaignConfig::builder()
            .benchmarks(["bwaves", "namd"])
            .cores([CoreId::new(0), CoreId::new(4)])
            .iterations(1)
            .start_voltage(Millivolts::new(915))
            .floor_voltage(Millivolts::new(895))
            .seed(7)
            .profile(true)
            .build()
            .unwrap();
        let campaign = Campaign::new(ChipSpec::new(Corner::Ttt, 0), cfg);

        let stream = |exec: &dyn CampaignExecutor| {
            let mut jsonl = margins_trace::JsonlSink::new(Vec::new());
            {
                let mut sinks: [&mut dyn margins_trace::Sink; 1] = [&mut jsonl];
                let ctx = ExecContext {
                    sinks: &mut sinks,
                    ..ExecContext::new()
                };
                campaign.run(exec, ctx).unwrap();
            }
            String::from_utf8(jsonl.into_inner().expect("in-memory writer")).expect("utf8")
        };

        let serial = stream(&SerialExecutor);
        let sharded = stream(&ThreadPoolExecutor::new(4).unwrap());
        let rerun = stream(&SerialExecutor);
        assert_eq!(
            serial, sharded,
            "profiled stream must not depend on shard count"
        );
        assert_eq!(
            serial, rerun,
            "profiled stream must be stable across reruns"
        );

        let stats = margins_trace::validate_jsonl(&serial).expect("valid profiled stream");
        assert_eq!(stats.sweeps, 4);
        assert_eq!(stats.profile_samples, 5 * 4, "five phases per sweep");
        assert_eq!(stats.profile_phases, 5, "five campaign rollups");

        // Decoding the stream and encoding it again reproduces its bytes.
        let mut reencoded = String::new();
        for record in margins_trace::read_jsonl(&serial).expect("the stream decodes") {
            record.write_json_line(&mut reencoded).unwrap();
            reencoded.push('\n');
        }
        assert_eq!(reencoded, serial);
    }

    #[test]
    fn profile_rollups_aggregate_the_per_sweep_samples() {
        let cfg = CampaignConfig::builder()
            .benchmarks(["bwaves", "namd"])
            .cores([CoreId::new(0)])
            .iterations(2)
            .start_voltage(Millivolts::new(915))
            .floor_voltage(Millivolts::new(895))
            .seed(7)
            .profile(true)
            .build()
            .unwrap();
        let campaign = Campaign::new(ChipSpec::new(Corner::Ttt, 0), cfg);
        let mut memory = margins_trace::MemorySink::new();
        {
            let mut sinks: [&mut dyn margins_trace::Sink; 1] = [&mut memory];
            let ctx = ExecContext {
                sinks: &mut sinks,
                ..ExecContext::new()
            };
            campaign.run(&SerialExecutor, ctx).unwrap();
        }

        let mut sampled: std::collections::BTreeMap<String, (u64, u64)> =
            std::collections::BTreeMap::new();
        let mut rolled: std::collections::BTreeMap<String, (u64, u64)> =
            std::collections::BTreeMap::new();
        for record in &memory.records {
            match &record.event {
                TraceEvent::ProfileSample {
                    phase,
                    ops,
                    fault_samples,
                    ..
                } => {
                    let e = sampled.entry(phase.clone()).or_default();
                    e.0 += ops;
                    e.1 += fault_samples;
                }
                TraceEvent::ProfilePhase {
                    phase,
                    sweeps,
                    ops,
                    fault_samples,
                    ..
                } => {
                    assert_eq!(*sweeps, 2);
                    rolled.insert(phase.clone(), (*ops, *fault_samples));
                }
                _ => {}
            }
        }
        assert_eq!(sampled, rolled, "rollups must sum the per-sweep samples");

        // An exhaustive sweep attributes step work to `probe`, none to
        // `search_step`, and executes real instructions in both executed
        // phases.
        assert!(rolled["golden_run"].0 > 0);
        assert!(rolled["probe"].0 > 0);
        assert!(rolled["probe"].1 > 0, "deep probes draw fault samples");
        assert_eq!(rolled["search_step"], (0, 0));
    }

    #[test]
    fn merging_campaigns_concatenates_iterations() {
        let make = |seed: u64| {
            let cfg = tiny_config("namd", 4, 890, 880, 2);
            let cfg = CampaignConfig { seed, ..cfg };
            Campaign::new(ChipSpec::new(Corner::Ttt, 0), cfg)
                .run(&SerialExecutor, ExecContext::new())
                .unwrap()
        };
        let a = make(1);
        let b = make(2);
        let merged = CampaignOutcome::merge([a.clone(), b]).unwrap();
        assert_eq!(merged.config.iterations, 4);
        assert_eq!(merged.runs.len(), a.runs.len() * 2);
        // Iteration indices are unique per coordinate.
        let mut seen = std::collections::HashSet::new();
        for r in &merged.runs {
            assert!(
                seen.insert((r.pmd_mv, r.iteration)),
                "{}@{}",
                r.pmd_mv,
                r.iteration
            );
        }
        // The merged outcome analyzes cleanly with the widened N.
        let result = crate::regions::analyze(&merged, &crate::severity::SeverityWeights::paper());
        assert_eq!(result.summaries[0].steps[0].effect_sets.len(), 4);
    }

    #[test]
    fn merge_rejects_mismatched_campaigns() {
        let a = Campaign::new(
            ChipSpec::new(Corner::Ttt, 0),
            tiny_config("namd", 4, 890, 880, 1),
        )
        .run(&SerialExecutor, ExecContext::new())
        .unwrap();
        let b = Campaign::new(
            ChipSpec::new(Corner::Tff, 1),
            tiny_config("namd", 4, 890, 880, 1),
        )
        .run(&SerialExecutor, ExecContext::new())
        .unwrap();
        assert_eq!(
            CampaignOutcome::merge([a.clone(), b]).unwrap_err(),
            MergeError::ChipMismatch
        );
        let c = Campaign::new(
            ChipSpec::new(Corner::Ttt, 0),
            tiny_config("namd", 4, 895, 880, 1),
        )
        .run(&SerialExecutor, ExecContext::new())
        .unwrap();
        assert_eq!(
            CampaignOutcome::merge([a, c]).unwrap_err(),
            MergeError::ConfigMismatch
        );
        assert_eq!(
            CampaignOutcome::merge(Vec::new()).unwrap_err(),
            MergeError::Empty
        );
    }

    #[test]
    fn run_seeds_are_distinct_across_coordinates() {
        let s = |mv, iter| run_seed(1, "bwaves", "ref", CoreId::new(0), mv, iter);
        assert_ne!(s(900, 0), s(900, 1));
        assert_ne!(s(900, 0), s(895, 0));
        assert_ne!(
            run_seed(1, "bwaves", "ref", CoreId::new(0), 900, 0),
            run_seed(1, "bwaves", "ref", CoreId::new(1), 900, 0)
        );
        assert_ne!(
            run_seed(1, "bwaves", "ref", CoreId::new(0), 900, 0),
            run_seed(1, "bwaves", "train", CoreId::new(0), 900, 0)
        );
        assert_eq!(s(900, 3), s(900, 3), "seeds are deterministic");
    }

    #[test]
    fn edit_distance_matches_known_values() {
        assert_eq!(edit_distance("", "namd"), 4);
        assert_eq!(edit_distance("namd", "namd"), 0);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("mcf", "lbm"), 3);
    }
}
