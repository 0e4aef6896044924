//! The typed event model: everything the characterization stack reports.
//!
//! Events mirror the phases of the paper's Figure 2. A campaign opens a
//! `CampaignStarted` span; each (benchmark, core) pair opens a
//! `SweepStarted` span; runs, voltage steps, golden captures, watchdog
//! recoveries and EDAC reports are leaves inside the sweep. The governor's
//! `VoltageDecision` may appear standalone (outside any campaign span).
//!
//! Every payload field is a primitive (strings, integers, modelled-time
//! floats) so the crate stays a leaf of the workspace graph and the JSONL
//! schema is self-describing.

use crate::json;
use std::fmt::{self, Write as _};

/// One telemetry event, before sequence/clock assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A campaign began (the initialization phase completed).
    CampaignStarted {
        /// Chip identity, e.g. `TTT#0`.
        chip: String,
        /// Swept rail (`pmd` or `soc`).
        rail: String,
        /// Number of benchmarks in the campaign.
        benchmarks: u32,
        /// Number of target cores.
        cores: u32,
        /// Voltage steps in the sweep grid.
        steps: u32,
        /// Iterations per (benchmark, core, voltage) configuration.
        iterations: u32,
        /// Logical work shards: one per (benchmark, core) sweep item.
        /// Which worker thread executes a shard — and, more generally,
        /// which `CampaignExecutor` ran the campaign (serial, thread
        /// pool, anything conformant) — is an execution detail
        /// deliberately excluded from the schema, so streams are
        /// identical across executors and thread counts. Executor
        /// identity must never be added to any event.
        shards: u32,
        /// Campaign seed.
        seed: u64,
    },
    /// One logical shard of the campaign schedule: a single (benchmark,
    /// core) sweep item, announced in canonical order in the preamble.
    ShardScheduled {
        /// Canonical shard index (the item's position in benchmarks-major
        /// order).
        shard: u32,
        /// Planned runs in this shard (steps × iterations; early stops may
        /// execute fewer).
        items: u32,
    },
    /// A (benchmark, core) sweep began.
    SweepStarted {
        /// Benchmark name.
        program: String,
        /// Input dataset label.
        dataset: String,
        /// Target core index.
        core: u8,
        /// Logical shard index of this sweep (its canonical item order),
        /// never the executing worker thread.
        shard: u32,
    },
    /// The golden output digest was captured at nominal conditions.
    GoldenCaptured {
        /// Benchmark name.
        program: String,
        /// Input dataset label.
        dataset: String,
        /// Target core index.
        core: u8,
        /// The golden digest, hex-rendered.
        digest: String,
        /// Modelled runtime of the golden run, seconds.
        runtime_s: f64,
    },
    /// The sweep descended to a new voltage step.
    VoltageStepped {
        /// Swept rail (`pmd` or `soc`).
        rail: String,
        /// Step voltage, millivolts.
        mv: u32,
        /// 0-based step index within the sweep.
        step: u32,
    },
    /// A supply rail was programmed through the SLIMpro (raw regulation
    /// command — includes the per-run nominal restores of safe data
    /// collection, §2.2.1).
    RailSet {
        /// Regulated rail (`pmd` or `soc`).
        rail: String,
        /// Programmed voltage, millivolts.
        mv: u32,
    },
    /// The watchdog found the board hung and pressed the power button.
    WatchdogPowerCycle {
        /// 1-based ordinal of this recovery within the enclosing sweep.
        /// (Deliberately *not* the board's boot count: that accumulates per
        /// worker board and would differ between serial and sharded
        /// executions of the same campaign.)
        recovery: u32,
    },
    /// The EDAC driver reported a cache error (drained after a run).
    CacheErrorReported {
        /// Reporting array (`L1I`, `L1D`, `L2`, `L3`).
        level: String,
        /// Array instance (core index for L1, PMD index for L2, 0 for L3).
        instance: u8,
        /// Whether the error was corrected (CE) or only detected (UE).
        corrected: bool,
    },
    /// One characterization run finished and was classified.
    RunCompleted {
        /// Benchmark name.
        program: String,
        /// Input dataset label.
        dataset: String,
        /// Target core index.
        core: u8,
        /// Swept-rail voltage of the run, millivolts.
        mv: u32,
        /// Iteration index within the campaign.
        iteration: u32,
        /// Observed Table 3 effect set, e.g. `NO` or `SDC+CE`.
        effects: String,
        /// The run's severity contribution (Σ Table 4 weights).
        severity: f64,
        /// Modelled runtime, seconds.
        runtime_s: f64,
        /// Modelled energy, joules. Deterministic because every voltage
        /// step runs on a pristine board (the §2.2.1 initialization
        /// phase), so the thermal history feeding the power model never
        /// depends on which probes executed before.
        energy_j: f64,
        /// Corrected-error reports during the run.
        corrected_errors: u64,
        /// Uncorrected-error reports during the run.
        uncorrected_errors: u64,
    },
    /// An adaptive search strategy selected the next voltage step to probe
    /// (emitted only for machine-executed probes, never for cache replays).
    SearchStep {
        /// Benchmark name.
        program: String,
        /// Target core index.
        core: u8,
        /// Search strategy name (`bisection` or `warm-start`).
        strategy: String,
        /// Search phase: `vmin` (first-abnormal boundary) or `crash`
        /// (first-all-system-crash boundary).
        phase: String,
        /// 0-based grid step index chosen.
        step: u32,
        /// Step voltage, millivolts.
        mv: u32,
    },
    /// The campaign result cache was consulted for a probe.
    CacheLookup {
        /// Benchmark name.
        program: String,
        /// Input dataset label.
        dataset: String,
        /// Target core index.
        core: u8,
        /// What was looked up: `golden` or `step`.
        probe: String,
        /// Step voltage, millivolts (0 for golden lookups).
        mv: u32,
        /// Whether the cache held the result (hit ⇒ no machine work).
        hit: bool,
    },
    /// An adaptive search finished a (benchmark, core) item.
    SearchConcluded {
        /// Benchmark name.
        program: String,
        /// Target core index.
        core: u8,
        /// Search strategy name.
        strategy: String,
        /// Voltage steps actually probed on the machine.
        probed_steps: u32,
        /// Voltage steps the exhaustive grid would have visited.
        grid_steps: u32,
        /// Steps answered from the campaign cache instead of execution.
        cache_hits: u32,
    },
    /// The crash-stop policy ended a sweep early.
    EarlyStop {
        /// Benchmark name.
        program: String,
        /// Target core index.
        core: u8,
        /// Deepest voltage reached, millivolts.
        mv: u32,
        /// Consecutive all-system-crash steps that triggered the stop.
        consecutive_all_sc: u32,
    },
    /// Deterministic work-accounting sample for one pipeline phase of a
    /// sweep (profile plane 1). Counts *modelled* units of work — never
    /// wall-clock time, which is measured outside the stream so it stays
    /// byte-deterministic.
    ProfileSample {
        /// Benchmark name.
        program: String,
        /// Input dataset label.
        dataset: String,
        /// Target core index.
        core: u8,
        /// Pipeline phase: `board_init`, `golden_run`, `probe`,
        /// `search_step` or `cache_lookup`.
        phase: String,
        /// Kernel ops retired by the simulator in this phase.
        ops: u64,
        /// Fault-model samples drawn while executing this phase.
        fault_samples: u64,
        /// SRAM/ECC error events observed in this phase.
        sram_events: u64,
        /// Campaign-cache probes attributed to this phase.
        cache_probes: u64,
        /// Watchdog recoveries attributed to this phase.
        recoveries: u64,
    },
    /// A (benchmark, core) sweep finished.
    SweepFinished {
        /// Benchmark name.
        program: String,
        /// Input dataset label.
        dataset: String,
        /// Target core index.
        core: u8,
        /// Classified runs the sweep produced.
        runs: u32,
    },
    /// Campaign-level rollup of one pipeline phase's deterministic work
    /// counts, aggregated over every sweep in canonical item order
    /// (profile plane 1).
    ProfilePhase {
        /// Pipeline phase: `board_init`, `golden_run`, `probe`,
        /// `search_step` or `cache_lookup`.
        phase: String,
        /// Sweeps that contributed any work to the phase.
        sweeps: u64,
        /// Kernel ops retired by the simulator in this phase.
        ops: u64,
        /// Fault-model samples drawn while executing this phase.
        fault_samples: u64,
        /// SRAM/ECC error events observed in this phase.
        sram_events: u64,
        /// Campaign-cache probes attributed to this phase.
        cache_probes: u64,
        /// Watchdog recoveries attributed to this phase.
        recoveries: u64,
    },
    /// The campaign finished.
    CampaignFinished {
        /// Total classified runs.
        runs: u64,
        /// Watchdog power cycles performed.
        power_cycles: u32,
    },
    /// The undervolting governor chose an operating point (§5).
    VoltageDecision {
        /// The shared-rail voltage to program, millivolts.
        voltage_mv: u32,
        /// Guardband steps applied above the binding Vmin.
        guardband_steps: u32,
        /// Expected power relative to nominal.
        relative_power: f64,
        /// Expected throughput relative to all-full-speed.
        relative_performance: f64,
        /// Expected energy savings.
        energy_savings: f64,
    },
}

impl TraceEvent {
    /// The event's name (the JSON `event` tag).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::CampaignStarted { .. } => "CampaignStarted",
            TraceEvent::ShardScheduled { .. } => "ShardScheduled",
            TraceEvent::SweepStarted { .. } => "SweepStarted",
            TraceEvent::GoldenCaptured { .. } => "GoldenCaptured",
            TraceEvent::VoltageStepped { .. } => "VoltageStepped",
            TraceEvent::RailSet { .. } => "RailSet",
            TraceEvent::WatchdogPowerCycle { .. } => "WatchdogPowerCycle",
            TraceEvent::CacheErrorReported { .. } => "CacheErrorReported",
            TraceEvent::RunCompleted { .. } => "RunCompleted",
            TraceEvent::SearchStep { .. } => "SearchStep",
            TraceEvent::CacheLookup { .. } => "CacheLookup",
            TraceEvent::SearchConcluded { .. } => "SearchConcluded",
            TraceEvent::EarlyStop { .. } => "EarlyStop",
            TraceEvent::ProfileSample { .. } => "ProfileSample",
            TraceEvent::SweepFinished { .. } => "SweepFinished",
            TraceEvent::ProfilePhase { .. } => "ProfilePhase",
            TraceEvent::CampaignFinished { .. } => "CampaignFinished",
            TraceEvent::VoltageDecision { .. } => "VoltageDecision",
        }
    }

    /// Modelled time the event consumes on the campaign clock: the run
    /// duration for executed work, zero for markers.
    #[must_use]
    pub(crate) fn modelled_duration_s(&self) -> f64 {
        match self {
            TraceEvent::GoldenCaptured { runtime_s, .. }
            | TraceEvent::RunCompleted { runtime_s, .. } => *runtime_s,
            _ => 0.0,
        }
    }

    /// Lists the event's payload fields (the JSON object minus the
    /// `event` tag and envelope), each exactly once. The inverse lives in
    /// [`crate::reader`]; a round-trip test there keeps the two in sync.
    fn encode_payload<'a>(&'a self, f: &mut Fields<'a>) {
        match self {
            TraceEvent::CampaignStarted {
                chip,
                rail,
                benchmarks,
                cores,
                steps,
                iterations,
                shards,
                seed,
            } => {
                f.str("chip", chip);
                f.str("rail", rail);
                f.u64("benchmarks", *benchmarks);
                f.u64("cores", *cores);
                f.u64("steps", *steps);
                f.u64("iterations", *iterations);
                f.u64("shards", *shards);
                f.u64("seed", *seed);
            }
            TraceEvent::ShardScheduled { shard, items } => {
                f.u64("shard", *shard);
                f.u64("items", *items);
            }
            TraceEvent::SweepStarted {
                program,
                dataset,
                core,
                shard,
            } => {
                f.str("program", program);
                f.str("dataset", dataset);
                f.u64("core", *core);
                f.u64("shard", *shard);
            }
            TraceEvent::GoldenCaptured {
                program,
                dataset,
                core,
                digest,
                runtime_s,
            } => {
                f.str("program", program);
                f.str("dataset", dataset);
                f.u64("core", *core);
                f.str("digest", digest);
                f.f64("runtime_s", *runtime_s);
            }
            TraceEvent::VoltageStepped { rail, mv, step } => {
                f.str("rail", rail);
                f.u64("mv", *mv);
                f.u64("step", *step);
            }
            TraceEvent::RailSet { rail, mv } => {
                f.str("rail", rail);
                f.u64("mv", *mv);
            }
            TraceEvent::WatchdogPowerCycle { recovery } => {
                f.u64("recovery", *recovery);
            }
            TraceEvent::CacheErrorReported {
                level,
                instance,
                corrected,
            } => {
                f.str("level", level);
                f.u64("instance", *instance);
                f.bool("corrected", *corrected);
            }
            TraceEvent::RunCompleted {
                program,
                dataset,
                core,
                mv,
                iteration,
                effects,
                severity,
                runtime_s,
                energy_j,
                corrected_errors,
                uncorrected_errors,
            } => {
                f.str("program", program);
                f.str("dataset", dataset);
                f.u64("core", *core);
                f.u64("mv", *mv);
                f.u64("iteration", *iteration);
                f.str("effects", effects);
                f.f64("severity", *severity);
                f.f64("runtime_s", *runtime_s);
                f.f64("energy_j", *energy_j);
                f.u64("corrected_errors", *corrected_errors);
                f.u64("uncorrected_errors", *uncorrected_errors);
            }
            TraceEvent::SearchStep {
                program,
                core,
                strategy,
                phase,
                step,
                mv,
            } => {
                f.str("program", program);
                f.u64("core", *core);
                f.str("strategy", strategy);
                f.str("phase", phase);
                f.u64("step", *step);
                f.u64("mv", *mv);
            }
            TraceEvent::CacheLookup {
                program,
                dataset,
                core,
                probe,
                mv,
                hit,
            } => {
                f.str("program", program);
                f.str("dataset", dataset);
                f.u64("core", *core);
                f.str("probe", probe);
                f.u64("mv", *mv);
                f.bool("hit", *hit);
            }
            TraceEvent::SearchConcluded {
                program,
                core,
                strategy,
                probed_steps,
                grid_steps,
                cache_hits,
            } => {
                f.str("program", program);
                f.u64("core", *core);
                f.str("strategy", strategy);
                f.u64("probed_steps", *probed_steps);
                f.u64("grid_steps", *grid_steps);
                f.u64("cache_hits", *cache_hits);
            }
            TraceEvent::EarlyStop {
                program,
                core,
                mv,
                consecutive_all_sc,
            } => {
                f.str("program", program);
                f.u64("core", *core);
                f.u64("mv", *mv);
                f.u64("consecutive_all_sc", *consecutive_all_sc);
            }
            TraceEvent::ProfileSample {
                program,
                dataset,
                core,
                phase,
                ops,
                fault_samples,
                sram_events,
                cache_probes,
                recoveries,
            } => {
                f.str("program", program);
                f.str("dataset", dataset);
                f.u64("core", *core);
                f.str("phase", phase);
                f.u64("ops", *ops);
                f.u64("fault_samples", *fault_samples);
                f.u64("sram_events", *sram_events);
                f.u64("cache_probes", *cache_probes);
                f.u64("recoveries", *recoveries);
            }
            TraceEvent::ProfilePhase {
                phase,
                sweeps,
                ops,
                fault_samples,
                sram_events,
                cache_probes,
                recoveries,
            } => {
                f.str("phase", phase);
                f.u64("sweeps", *sweeps);
                f.u64("ops", *ops);
                f.u64("fault_samples", *fault_samples);
                f.u64("sram_events", *sram_events);
                f.u64("cache_probes", *cache_probes);
                f.u64("recoveries", *recoveries);
            }
            TraceEvent::SweepFinished {
                program,
                dataset,
                core,
                runs,
            } => {
                f.str("program", program);
                f.str("dataset", dataset);
                f.u64("core", *core);
                f.u64("runs", *runs);
            }
            TraceEvent::CampaignFinished { runs, power_cycles } => {
                f.u64("runs", *runs);
                f.u64("power_cycles", *power_cycles);
            }
            TraceEvent::VoltageDecision {
                voltage_mv,
                guardband_steps,
                relative_power,
                relative_performance,
                energy_savings,
            } => {
                f.u64("voltage_mv", *voltage_mv);
                f.u64("guardband_steps", *guardband_steps);
                f.f64("relative_power", *relative_power);
                f.f64("relative_performance", *relative_performance);
                f.f64("energy_savings", *energy_savings);
            }
        }
    }
}

/// One field value, borrowed from the record being encoded.
#[derive(Debug, Clone, Copy)]
enum Field<'a> {
    Str(&'a str),
    U64(u64),
    F64(f64),
    Bool(bool),
}

/// The most fields one record has: `RunCompleted`'s eleven payload fields
/// plus `event`, `seq` and `t_model_s`.
const MAX_FIELDS: usize = 14;

/// A record's `(key, value)` pairs, in the order they were listed, on the
/// stack.
struct Fields<'a> {
    pairs: [(&'static str, Field<'a>); MAX_FIELDS],
    len: usize,
}

impl<'a> Fields<'a> {
    fn new() -> Self {
        Fields {
            pairs: [("", Field::Bool(false)); MAX_FIELDS],
            len: 0,
        }
    }

    fn push(&mut self, key: &'static str, value: Field<'a>) {
        self.pairs[self.len] = (key, value);
        self.len += 1;
    }

    fn str(&mut self, key: &'static str, value: &'a str) {
        self.push(key, Field::Str(value));
    }

    fn u64(&mut self, key: &'static str, value: impl Into<u64>) {
        self.push(key, Field::U64(value.into()));
    }

    fn f64(&mut self, key: &'static str, value: f64) {
        self.push(key, Field::F64(value));
    }

    fn bool(&mut self, key: &'static str, value: bool) {
        self.push(key, Field::Bool(value));
    }
}

/// A record could not be serialized: a float field was non-finite (JSON
/// has no representation for NaN/∞, and finalized streams never carry
/// them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodeError {
    /// The offending field.
    pub field: &'static str,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "field '{}' is not a finite number", self.field)
    }
}

impl std::error::Error for EncodeError {}

/// A finalized event: sequence number and modelled-clock stamp assigned in
/// the canonical (scheduling-independent) stream order.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// 0-based position in the stream.
    pub seq: u64,
    /// Modelled campaign time at (the end of) the event, seconds.
    pub t_model_s: f64,
    /// The event itself.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Appends the record to `out` as one byte-deterministic JSON line: a
    /// flat object of the `event` tag, the payload fields and the
    /// `seq`/`t_model_s` envelope, keys sorted, no trailing newline.
    ///
    /// The bytes are those of [`json::render`] on the equivalent object:
    /// keys in byte order, strings through [`json::escape_into`],
    /// integers in decimal and floats in their shortest round-trip form
    /// ([`json::fmt_f64`]).
    ///
    /// # Errors
    ///
    /// Fails when a float field is non-finite (finalized records never
    /// carry one), naming the first such field in the order the encoder
    /// lists them. `out` is then left as it was.
    pub fn write_json_line(&self, out: &mut String) -> Result<(), EncodeError> {
        let mut fields = Fields::new();
        fields.str("event", self.event.name());
        self.event.encode_payload(&mut fields);
        fields.u64("seq", self.seq);
        fields.f64("t_model_s", self.t_model_s);
        let pairs = &mut fields.pairs[..fields.len];
        if let Some(&(field, _)) = pairs
            .iter()
            .find(|(_, value)| matches!(value, Field::F64(v) if !v.is_finite()))
        {
            return Err(EncodeError { field });
        }
        pairs.sort_unstable_by_key(|&(key, _)| key);
        out.push('{');
        for (i, &(key, value)) in pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::escape_into(out, key);
            out.push(':');
            match value {
                Field::Str(s) => json::escape_into(out, s),
                Field::U64(v) => {
                    let _ = write!(out, "{v}");
                }
                Field::F64(v) => {
                    let _ = write!(out, "{v:?}");
                }
                Field::Bool(v) => out.push_str(if v { "true" } else { "false" }),
            }
        }
        out.push('}');
        Ok(())
    }

    /// Renders the record as one byte-deterministic JSON line (keys sorted,
    /// no trailing newline); see [`TraceRecord::write_json_line`].
    ///
    /// # Errors
    ///
    /// Fails for unserializable values (only possible for non-finite
    /// floats, which finalized records never carry).
    pub fn to_json_line(&self) -> Result<String, EncodeError> {
        let mut line = String::new();
        self.write_json_line(&mut line)?;
        Ok(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_have_sorted_keys_and_event_tag() {
        let rec = TraceRecord {
            seq: 3,
            t_model_s: 0.25,
            event: TraceEvent::VoltageStepped {
                rail: "pmd".into(),
                mv: 905,
                step: 2,
            },
        };
        let line = rec.to_json_line().expect("serializable");
        assert_eq!(
            line,
            r#"{"event":"VoltageStepped","mv":905,"rail":"pmd","seq":3,"step":2,"t_model_s":0.25}"#
        );
    }

    #[test]
    fn records_roundtrip_through_json() {
        let rec = TraceRecord {
            seq: 0,
            t_model_s: 0.0,
            event: TraceEvent::RunCompleted {
                program: "bwaves".into(),
                dataset: "ref".into(),
                core: 0,
                mv: 900,
                iteration: 1,
                effects: "SDC+CE".into(),
                severity: 5.0,
                runtime_s: 1e-3,
                energy_j: 2.5e-2,
                corrected_errors: 2,
                uncorrected_errors: 0,
            },
        };
        let line = rec.to_json_line().expect("serializable");
        let back = crate::reader::read_jsonl(&line).expect("parseable");
        assert_eq!(back, vec![rec]);
    }

    #[test]
    fn non_finite_floats_are_encode_errors() {
        let rec = TraceRecord {
            seq: 0,
            t_model_s: f64::NAN,
            event: TraceEvent::WatchdogPowerCycle { recovery: 1 },
        };
        let err = rec.to_json_line().expect_err("NaN clock");
        assert_eq!(err.field, "t_model_s");
        assert!(err.to_string().contains("t_model_s"), "{err}");
    }

    #[test]
    fn modelled_duration_is_zero_for_markers() {
        let ev = TraceEvent::WatchdogPowerCycle { recovery: 2 };
        assert!(ev.modelled_duration_s() <= f64::EPSILON);
        let run = TraceEvent::GoldenCaptured {
            program: "namd".into(),
            dataset: "ref".into(),
            core: 4,
            digest: "00ff".into(),
            runtime_s: 0.5,
        };
        assert!((run.modelled_duration_s() - 0.5).abs() < 1e-12);
    }
}
