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
//!
//! The declaration of [`TraceEvent`] below is the schema, written once:
//! from it the `trace_events!` macro derives each event's `event` tag
//! ([`TraceEvent::name`]), the payload encoder behind
//! [`TraceRecord::write_json_line`] and the decoder behind
//! [`read_jsonl`](crate::reader::read_jsonl). A variant's fields are its
//! payload, listed and read in declaration order.

use crate::json;
use std::fmt::{self, Write as _};

/// Declares the event enum and derives from its one variant list the
/// event name, the payload encoder and the decoder.
macro_rules! trace_events {
    (
        $(#[$enum_meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$variant_meta:meta])*
                $variant:ident {
                    $($(#[$field_meta:meta])* $field:ident: $ty:ty,)+
                },
            )+
        }
    ) => {
        $(#[$enum_meta])*
        $vis enum $name {
            $(
                $(#[$variant_meta])*
                $variant {
                    $($(#[$field_meta])* $field: $ty,)+
                },
            )+
        }

        // Every record's pairs fit the encoder's stack array.
        const _: () = {
            $(assert!([$(stringify!($field)),+].len() + 3 <= MAX_FIELDS);)+
        };

        impl $name {
            /// The event's name (the JSON `event` tag).
            #[must_use]
            pub fn name(&self) -> &'static str {
                match self {
                    $($name::$variant { .. } => stringify!($variant),)+
                }
            }

            /// Lists the event's payload fields (the JSON object minus the
            /// `event` tag and envelope) in declaration order.
            fn encode_payload<'a>(&'a self, f: &mut Fields<'a>) {
                match self {
                    $($name::$variant { $($field),+ } => {
                        $(f.push(stringify!($field), $field.field());)+
                    })+
                }
            }

            /// Decodes the event tagged `name`, reading its payload fields
            /// from `obj` by name and type in declaration order; `None` for
            /// an unknown tag.
            pub(crate) fn decode<'a>(
                name: &str,
                obj: &mut json::Fields<'a>,
            ) -> Result<Option<$name>, json::FieldError<'a>> {
                Ok(Some(match name {
                    $(stringify!($variant) => $name::$variant {
                        $($field: obj.get(stringify!($field))?,)+
                    },)+
                    _ => return Ok(None),
                }))
            }

            /// Every event name, in declaration order.
            #[cfg(test)]
            pub(crate) const NAMES: &'static [&'static str] = &[$(stringify!($variant)),+];
        }
    };
}

trace_events! {
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
    }
}

impl TraceEvent {
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
}

/// A payload field's type, as the encoder writes its value.
trait Encode {
    fn field(&self) -> Field<'_>;
}

impl Encode for String {
    fn field(&self) -> Field<'_> {
        Field::Str(self)
    }
}

impl Encode for u8 {
    fn field(&self) -> Field<'_> {
        Field::U64(u64::from(*self))
    }
}

impl Encode for u32 {
    fn field(&self) -> Field<'_> {
        Field::U64(u64::from(*self))
    }
}

impl Encode for u64 {
    fn field(&self) -> Field<'_> {
        Field::U64(*self)
    }
}

impl Encode for f64 {
    fn field(&self) -> Field<'_> {
        Field::F64(*self)
    }
}

impl Encode for bool {
    fn field(&self) -> Field<'_> {
        Field::Bool(*self)
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
        fields.push("event", Field::Str(self.event.name()));
        self.event.encode_payload(&mut fields);
        fields.push("seq", self.seq.field());
        fields.push("t_model_s", self.t_model_s.field());
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
