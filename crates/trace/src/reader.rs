//! Reading serialized JSONL trace streams back into typed records.
//!
//! The writer side of this crate ([`JsonlSink`]) guarantees one sorted-key
//! JSON object per line; this module is the inverse: it parses a stream
//! back into [`TraceRecord`]s with *diagnosable* failures. Every parse
//! error names the 1-based line, the 0-based event index (records
//! successfully decoded before the failure) and — wherever the schema can
//! pin it down — the offending field, so `trace-check` and `trace-scope`
//! can point at the exact byte range a producer corrupted.
//!
//! Decoding is deliberately strict: the expected payload fields of every
//! event are checked against a schema table (unknown extra fields are
//! rejected, since the writer never emits them), numeric ranges are
//! enforced (a `core` of 300 is corruption, not data), and integer tokens
//! are parsed from their raw text so 64-bit values never round-trip
//! through `f64`.
//!
//! [`JsonlSink`]: crate::sink::JsonlSink

use crate::event::{TraceEvent, TraceRecord};
use crate::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A typed failure parsing one line of a JSONL trace stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFailure {
    /// 1-based line number of the unparseable line.
    pub line: usize,
    /// 0-based event index: how many records decoded before this line.
    pub event_index: u64,
    /// The offending field, when the failure can be pinned to one.
    pub field: Option<String>,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {} (event {})", self.line, self.event_index)?;
        if let Some(field) = &self.field {
            write!(f, ", field '{field}'")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for ParseFailure {}

/// A field-attributable decode failure, before line attribution.
type Fail = (Option<String>, String);

/// Parses a whole JSONL stream into records.
///
/// Empty lines are rejected: the writer never emits them, so one in the
/// input means truncation or concatenation damage.
///
/// # Errors
///
/// Returns the first [`ParseFailure`] encountered.
pub fn read_jsonl(input: &str) -> Result<Vec<TraceRecord>, ParseFailure> {
    let mut records = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        let fail = |(field, message): Fail| ParseFailure {
            line: idx + 1,
            event_index: records.len() as u64,
            field,
            message,
        };
        if line.trim().is_empty() {
            return Err(fail((None, "empty line in stream".to_owned())));
        }
        match parse_line(line) {
            Ok(record) => records.push(record),
            Err(failure) => return Err(fail(failure)),
        }
    }
    Ok(records)
}

/// The JSON shape a payload field must have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FieldKind {
    /// Unsigned integer fitting in `u8`.
    U8,
    /// Unsigned integer fitting in `u32`.
    U32,
    /// Unsigned integer fitting in `u64`.
    U64,
    /// Any finite JSON number.
    F64,
    /// A JSON string.
    Str,
    /// A JSON boolean.
    Bool,
}

impl FieldKind {
    fn accepts(self, value: &Value) -> bool {
        match self {
            FieldKind::U8 => number_parses::<u8>(value),
            FieldKind::U32 => number_parses::<u32>(value),
            FieldKind::U64 => number_parses::<u64>(value),
            FieldKind::F64 => value
                .as_number()
                .is_some_and(|raw| raw.parse::<f64>().is_ok_and(f64::is_finite)),
            FieldKind::Str => value.as_str().is_some(),
            FieldKind::Bool => matches!(value, Value::Bool(_)),
        }
    }

    fn describe(self) -> &'static str {
        match self {
            FieldKind::U8 => "an unsigned integer ≤ 255",
            FieldKind::U32 => "an unsigned 32-bit integer",
            FieldKind::U64 => "an unsigned 64-bit integer",
            FieldKind::F64 => "a finite number",
            FieldKind::Str => "a string",
            FieldKind::Bool => "a boolean",
        }
    }
}

/// Whether `value` is a number whose raw token parses as `T` — exact
/// integer semantics (`300` is not a `u8`, `-3` is not a `u64`, `1.5` is
/// not an integer at all), no `f64` round trip.
fn number_parses<T: std::str::FromStr>(value: &Value) -> bool {
    value
        .as_number()
        .is_some_and(|raw| raw.parse::<T>().is_ok())
}

/// Payload schema per event tag, mirroring [`crate::event::TraceEvent`].
/// A sync test in this module asserts every variant serializes to exactly
/// these fields.
fn event_schema(event: &str) -> Option<&'static [(&'static str, FieldKind)]> {
    use FieldKind::{Bool, Str, F64, U32, U64, U8};
    Some(match event {
        "CampaignStarted" => &[
            ("chip", Str),
            ("rail", Str),
            ("benchmarks", U32),
            ("cores", U32),
            ("steps", U32),
            ("iterations", U32),
            ("shards", U32),
            ("seed", U64),
        ],
        "ShardScheduled" => &[("shard", U32), ("items", U32)],
        "SweepStarted" => &[
            ("program", Str),
            ("dataset", Str),
            ("core", U8),
            ("shard", U32),
        ],
        "GoldenCaptured" => &[
            ("program", Str),
            ("dataset", Str),
            ("core", U8),
            ("digest", Str),
            ("runtime_s", F64),
        ],
        "VoltageStepped" => &[("rail", Str), ("mv", U32), ("step", U32)],
        "RailSet" => &[("rail", Str), ("mv", U32)],
        "WatchdogPowerCycle" => &[("recovery", U32)],
        "CacheErrorReported" => &[("level", Str), ("instance", U8), ("corrected", Bool)],
        "RunCompleted" => &[
            ("program", Str),
            ("dataset", Str),
            ("core", U8),
            ("mv", U32),
            ("iteration", U32),
            ("effects", Str),
            ("severity", F64),
            ("runtime_s", F64),
            ("energy_j", F64),
            ("corrected_errors", U64),
            ("uncorrected_errors", U64),
        ],
        "SearchStep" => &[
            ("program", Str),
            ("core", U8),
            ("strategy", Str),
            ("phase", Str),
            ("step", U32),
            ("mv", U32),
        ],
        "CacheLookup" => &[
            ("program", Str),
            ("dataset", Str),
            ("core", U8),
            ("probe", Str),
            ("mv", U32),
            ("hit", Bool),
        ],
        "SearchConcluded" => &[
            ("program", Str),
            ("core", U8),
            ("strategy", Str),
            ("probed_steps", U32),
            ("grid_steps", U32),
            ("cache_hits", U32),
        ],
        "EarlyStop" => &[
            ("program", Str),
            ("core", U8),
            ("mv", U32),
            ("consecutive_all_sc", U32),
        ],
        "ProfileSample" => &[
            ("program", Str),
            ("dataset", Str),
            ("core", U8),
            ("phase", Str),
            ("ops", U64),
            ("fault_samples", U64),
            ("sram_events", U64),
            ("cache_probes", U64),
            ("recoveries", U64),
        ],
        "SweepFinished" => &[
            ("program", Str),
            ("dataset", Str),
            ("core", U8),
            ("runs", U32),
        ],
        "ProfilePhase" => &[
            ("phase", Str),
            ("sweeps", U64),
            ("ops", U64),
            ("fault_samples", U64),
            ("sram_events", U64),
            ("cache_probes", U64),
            ("recoveries", U64),
        ],
        "CampaignFinished" => &[("runs", U64), ("power_cycles", U32)],
        "VoltageDecision" => &[
            ("voltage_mv", U32),
            ("guardband_steps", U32),
            ("relative_power", F64),
            ("relative_performance", F64),
            ("energy_savings", F64),
        ],
        _ => return None,
    })
}

/// The envelope fields every record carries besides the event payload.
const ENVELOPE_FIELDS: [(&str, FieldKind); 2] =
    [("seq", FieldKind::U64), ("t_model_s", FieldKind::F64)];

/// Typed access to the fields of a schema-validated JSON object. Every
/// accessor still returns `Result` (never panics on adversarial input),
/// but after the schema pass the error paths are unreachable.
struct Obj<'a> {
    map: &'a BTreeMap<String, Value>,
}

impl Obj<'_> {
    fn raw(&self, name: &str) -> Result<&Value, Fail> {
        self.map
            .get(name)
            .ok_or_else(|| (Some(name.to_owned()), "missing".to_owned()))
    }

    fn str(&self, name: &str) -> Result<String, Fail> {
        self.raw(name)?
            .as_str()
            .map(str::to_owned)
            .ok_or_else(|| type_fail(name, FieldKind::Str, self.map))
    }

    fn int<T: std::str::FromStr>(&self, name: &str, kind: FieldKind) -> Result<T, Fail> {
        self.raw(name)?
            .as_number()
            .and_then(|raw| raw.parse::<T>().ok())
            .ok_or_else(|| type_fail(name, kind, self.map))
    }

    fn u8(&self, name: &str) -> Result<u8, Fail> {
        self.int(name, FieldKind::U8)
    }

    fn u32(&self, name: &str) -> Result<u32, Fail> {
        self.int(name, FieldKind::U32)
    }

    fn u64(&self, name: &str) -> Result<u64, Fail> {
        self.int(name, FieldKind::U64)
    }

    fn f64(&self, name: &str) -> Result<f64, Fail> {
        self.raw(name)?
            .as_number()
            .and_then(|raw| raw.parse::<f64>().ok())
            .filter(|v| v.is_finite())
            .ok_or_else(|| type_fail(name, FieldKind::F64, self.map))
    }

    fn bool(&self, name: &str) -> Result<bool, Fail> {
        match self.raw(name)? {
            Value::Bool(b) => Ok(*b),
            _ => Err(type_fail(name, FieldKind::Bool, self.map)),
        }
    }
}

fn type_fail(name: &str, kind: FieldKind, map: &BTreeMap<String, Value>) -> Fail {
    let got = map.get(name).map_or("nothing".to_owned(), json::render);
    (
        Some(name.to_owned()),
        format!("expected {}, got {got}", kind.describe()),
    )
}

/// Parses one line, reporting `(offending field, message)` on failure.
fn parse_line(line: &str) -> Result<TraceRecord, Fail> {
    let value = json::parse(line).map_err(|e| (None, format!("not valid JSON: {e}")))?;
    let Some(map) = value.as_object() else {
        return Err((None, "line is not a JSON object".to_owned()));
    };
    let obj = Obj { map };

    for (name, kind) in ENVELOPE_FIELDS {
        match map.get(name) {
            None => return Err((Some(name.to_owned()), "missing".to_owned())),
            Some(v) if !kind.accepts(v) => return Err(type_fail(name, kind, map)),
            Some(_) => {}
        }
    }
    let Some(event) = map.get("event") else {
        return Err((Some("event".to_owned()), "missing".to_owned()));
    };
    let Some(event_name) = event.as_str() else {
        return Err((
            Some("event".to_owned()),
            format!("expected a string event tag, got {}", json::render(event)),
        ));
    };
    let Some(schema) = event_schema(event_name) else {
        return Err((
            Some("event".to_owned()),
            format!("unknown event '{event_name}'"),
        ));
    };

    for (name, kind) in schema {
        match map.get(*name) {
            None => {
                return Err((
                    Some((*name).to_owned()),
                    format!("missing (required by {event_name})"),
                ))
            }
            Some(v) if !kind.accepts(v) => return Err(type_fail(name, *kind, map)),
            Some(_) => {}
        }
    }
    for key in map.keys() {
        let known = key == "seq"
            || key == "t_model_s"
            || key == "event"
            || schema.iter().any(|(name, _)| name == key);
        if !known {
            return Err((
                Some(key.clone()),
                format!("unexpected field for {event_name}"),
            ));
        }
    }

    Ok(TraceRecord {
        seq: obj.u64("seq")?,
        t_model_s: obj.f64("t_model_s")?,
        event: decode_event(event_name, &obj)?,
    })
}

/// Builds the typed event from a schema-validated object. The inverse of
/// [`TraceEvent`]'s payload encoder; the round-trip test below keeps the
/// two (and the schema table) in sync.
fn decode_event(name: &str, obj: &Obj<'_>) -> Result<TraceEvent, Fail> {
    Ok(match name {
        "CampaignStarted" => TraceEvent::CampaignStarted {
            chip: obj.str("chip")?,
            rail: obj.str("rail")?,
            benchmarks: obj.u32("benchmarks")?,
            cores: obj.u32("cores")?,
            steps: obj.u32("steps")?,
            iterations: obj.u32("iterations")?,
            shards: obj.u32("shards")?,
            seed: obj.u64("seed")?,
        },
        "ShardScheduled" => TraceEvent::ShardScheduled {
            shard: obj.u32("shard")?,
            items: obj.u32("items")?,
        },
        "SweepStarted" => TraceEvent::SweepStarted {
            program: obj.str("program")?,
            dataset: obj.str("dataset")?,
            core: obj.u8("core")?,
            shard: obj.u32("shard")?,
        },
        "GoldenCaptured" => TraceEvent::GoldenCaptured {
            program: obj.str("program")?,
            dataset: obj.str("dataset")?,
            core: obj.u8("core")?,
            digest: obj.str("digest")?,
            runtime_s: obj.f64("runtime_s")?,
        },
        "VoltageStepped" => TraceEvent::VoltageStepped {
            rail: obj.str("rail")?,
            mv: obj.u32("mv")?,
            step: obj.u32("step")?,
        },
        "RailSet" => TraceEvent::RailSet {
            rail: obj.str("rail")?,
            mv: obj.u32("mv")?,
        },
        "WatchdogPowerCycle" => TraceEvent::WatchdogPowerCycle {
            recovery: obj.u32("recovery")?,
        },
        "CacheErrorReported" => TraceEvent::CacheErrorReported {
            level: obj.str("level")?,
            instance: obj.u8("instance")?,
            corrected: obj.bool("corrected")?,
        },
        "RunCompleted" => TraceEvent::RunCompleted {
            program: obj.str("program")?,
            dataset: obj.str("dataset")?,
            core: obj.u8("core")?,
            mv: obj.u32("mv")?,
            iteration: obj.u32("iteration")?,
            effects: obj.str("effects")?,
            severity: obj.f64("severity")?,
            runtime_s: obj.f64("runtime_s")?,
            energy_j: obj.f64("energy_j")?,
            corrected_errors: obj.u64("corrected_errors")?,
            uncorrected_errors: obj.u64("uncorrected_errors")?,
        },
        "SearchStep" => TraceEvent::SearchStep {
            program: obj.str("program")?,
            core: obj.u8("core")?,
            strategy: obj.str("strategy")?,
            phase: obj.str("phase")?,
            step: obj.u32("step")?,
            mv: obj.u32("mv")?,
        },
        "CacheLookup" => TraceEvent::CacheLookup {
            program: obj.str("program")?,
            dataset: obj.str("dataset")?,
            core: obj.u8("core")?,
            probe: obj.str("probe")?,
            mv: obj.u32("mv")?,
            hit: obj.bool("hit")?,
        },
        "SearchConcluded" => TraceEvent::SearchConcluded {
            program: obj.str("program")?,
            core: obj.u8("core")?,
            strategy: obj.str("strategy")?,
            probed_steps: obj.u32("probed_steps")?,
            grid_steps: obj.u32("grid_steps")?,
            cache_hits: obj.u32("cache_hits")?,
        },
        "EarlyStop" => TraceEvent::EarlyStop {
            program: obj.str("program")?,
            core: obj.u8("core")?,
            mv: obj.u32("mv")?,
            consecutive_all_sc: obj.u32("consecutive_all_sc")?,
        },
        "ProfileSample" => TraceEvent::ProfileSample {
            program: obj.str("program")?,
            dataset: obj.str("dataset")?,
            core: obj.u8("core")?,
            phase: obj.str("phase")?,
            ops: obj.u64("ops")?,
            fault_samples: obj.u64("fault_samples")?,
            sram_events: obj.u64("sram_events")?,
            cache_probes: obj.u64("cache_probes")?,
            recoveries: obj.u64("recoveries")?,
        },
        "SweepFinished" => TraceEvent::SweepFinished {
            program: obj.str("program")?,
            dataset: obj.str("dataset")?,
            core: obj.u8("core")?,
            runs: obj.u32("runs")?,
        },
        "ProfilePhase" => TraceEvent::ProfilePhase {
            phase: obj.str("phase")?,
            sweeps: obj.u64("sweeps")?,
            ops: obj.u64("ops")?,
            fault_samples: obj.u64("fault_samples")?,
            sram_events: obj.u64("sram_events")?,
            cache_probes: obj.u64("cache_probes")?,
            recoveries: obj.u64("recoveries")?,
        },
        "CampaignFinished" => TraceEvent::CampaignFinished {
            runs: obj.u64("runs")?,
            power_cycles: obj.u32("power_cycles")?,
        },
        "VoltageDecision" => TraceEvent::VoltageDecision {
            voltage_mv: obj.u32("voltage_mv")?,
            guardband_steps: obj.u32("guardband_steps")?,
            relative_power: obj.f64("relative_power")?,
            relative_performance: obj.f64("relative_performance")?,
            energy_savings: obj.f64("energy_savings")?,
        },
        other => {
            // Unreachable: the schema pass already rejected unknown tags.
            return Err((Some("event".to_owned()), format!("unknown event '{other}'")));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::StreamFinalizer;

    /// One sample per variant — keep in sync with [`TraceEvent`]; the
    /// schema-coverage test below fails when a variant is missing here.
    pub(crate) fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::CampaignStarted {
                chip: "TTT#0".into(),
                rail: "pmd".into(),
                benchmarks: 2,
                cores: 2,
                steps: 7,
                iterations: 2,
                shards: 4,
                seed: 7,
            },
            TraceEvent::ShardScheduled {
                shard: 0,
                items: 14,
            },
            TraceEvent::SweepStarted {
                program: "bwaves".into(),
                dataset: "ref".into(),
                core: 0,
                shard: 0,
            },
            TraceEvent::GoldenCaptured {
                program: "bwaves".into(),
                dataset: "ref".into(),
                core: 0,
                digest: "00ff".into(),
                runtime_s: 0.5,
            },
            TraceEvent::VoltageStepped {
                rail: "pmd".into(),
                mv: 905,
                step: 2,
            },
            TraceEvent::RailSet {
                rail: "pmd".into(),
                mv: 905,
            },
            TraceEvent::WatchdogPowerCycle { recovery: 1 },
            TraceEvent::CacheErrorReported {
                level: "L2".into(),
                instance: 1,
                corrected: true,
            },
            TraceEvent::RunCompleted {
                program: "bwaves".into(),
                dataset: "ref".into(),
                core: 0,
                mv: 900,
                iteration: 1,
                effects: "SDC+CE".into(),
                severity: 5.0,
                runtime_s: 1e-3,
                energy_j: 2.5e-2,
                corrected_errors: u64::MAX,
                uncorrected_errors: 0,
            },
            TraceEvent::SearchStep {
                program: "bwaves".into(),
                core: 0,
                strategy: "bisection".into(),
                phase: "vmin".into(),
                step: 3,
                mv: 900,
            },
            TraceEvent::CacheLookup {
                program: "bwaves".into(),
                dataset: "ref".into(),
                core: 0,
                probe: "step".into(),
                mv: 900,
                hit: false,
            },
            TraceEvent::SearchConcluded {
                program: "bwaves".into(),
                core: 0,
                strategy: "bisection".into(),
                probed_steps: 4,
                grid_steps: 7,
                cache_hits: 0,
            },
            TraceEvent::EarlyStop {
                program: "bwaves".into(),
                core: 0,
                mv: 885,
                consecutive_all_sc: 2,
            },
            TraceEvent::SweepFinished {
                program: "bwaves".into(),
                dataset: "ref".into(),
                core: 0,
                runs: 8,
            },
            TraceEvent::CampaignFinished {
                runs: 8,
                power_cycles: 1,
            },
            TraceEvent::VoltageDecision {
                voltage_mv: 890,
                guardband_steps: 1,
                relative_power: 0.85,
                relative_performance: 1.0,
                energy_savings: 0.15,
            },
            TraceEvent::ProfileSample {
                program: "bwaves".into(),
                dataset: "ref".into(),
                core: 0,
                phase: "probe".into(),
                ops: u64::MAX,
                fault_samples: 12,
                sram_events: 3,
                cache_probes: 0,
                recoveries: 1,
            },
            TraceEvent::ProfilePhase {
                phase: "probe".into(),
                sweeps: 2,
                ops: u64::MAX,
                fault_samples: 24,
                sram_events: 6,
                cache_probes: 0,
                recoveries: 2,
            },
        ]
    }

    /// `render(sample_events())`, one line per variant in sample order: the
    /// exact bytes written traces and their golden digests rely on.
    const SAMPLE_LINES: [&str; 18] = [
        r#"{"benchmarks":2,"chip":"TTT#0","cores":2,"event":"CampaignStarted","iterations":2,"rail":"pmd","seed":7,"seq":0,"shards":4,"steps":7,"t_model_s":0.0}"#,
        r#"{"event":"ShardScheduled","items":14,"seq":1,"shard":0,"t_model_s":0.0}"#,
        r#"{"core":0,"dataset":"ref","event":"SweepStarted","program":"bwaves","seq":2,"shard":0,"t_model_s":0.0}"#,
        r#"{"core":0,"dataset":"ref","digest":"00ff","event":"GoldenCaptured","program":"bwaves","runtime_s":0.5,"seq":3,"t_model_s":0.5}"#,
        r#"{"event":"VoltageStepped","mv":905,"rail":"pmd","seq":4,"step":2,"t_model_s":0.5}"#,
        r#"{"event":"RailSet","mv":905,"rail":"pmd","seq":5,"t_model_s":0.5}"#,
        r#"{"event":"WatchdogPowerCycle","recovery":1,"seq":6,"t_model_s":0.5}"#,
        r#"{"corrected":true,"event":"CacheErrorReported","instance":1,"level":"L2","seq":7,"t_model_s":0.5}"#,
        r#"{"core":0,"corrected_errors":18446744073709551615,"dataset":"ref","effects":"SDC+CE","energy_j":0.025,"event":"RunCompleted","iteration":1,"mv":900,"program":"bwaves","runtime_s":0.001,"seq":8,"severity":5.0,"t_model_s":0.501,"uncorrected_errors":0}"#,
        r#"{"core":0,"event":"SearchStep","mv":900,"phase":"vmin","program":"bwaves","seq":9,"step":3,"strategy":"bisection","t_model_s":0.501}"#,
        r#"{"core":0,"dataset":"ref","event":"CacheLookup","hit":false,"mv":900,"probe":"step","program":"bwaves","seq":10,"t_model_s":0.501}"#,
        r#"{"cache_hits":0,"core":0,"event":"SearchConcluded","grid_steps":7,"probed_steps":4,"program":"bwaves","seq":11,"strategy":"bisection","t_model_s":0.501}"#,
        r#"{"consecutive_all_sc":2,"core":0,"event":"EarlyStop","mv":885,"program":"bwaves","seq":12,"t_model_s":0.501}"#,
        r#"{"core":0,"dataset":"ref","event":"SweepFinished","program":"bwaves","runs":8,"seq":13,"t_model_s":0.501}"#,
        r#"{"event":"CampaignFinished","power_cycles":1,"runs":8,"seq":14,"t_model_s":0.501}"#,
        r#"{"energy_savings":0.15,"event":"VoltageDecision","guardband_steps":1,"relative_performance":1.0,"relative_power":0.85,"seq":15,"t_model_s":0.501,"voltage_mv":890}"#,
        r#"{"cache_probes":0,"core":0,"dataset":"ref","event":"ProfileSample","fault_samples":12,"ops":18446744073709551615,"phase":"probe","program":"bwaves","recoveries":1,"seq":16,"sram_events":3,"t_model_s":0.501}"#,
        r#"{"cache_probes":0,"event":"ProfilePhase","fault_samples":24,"ops":18446744073709551615,"phase":"probe","recoveries":2,"seq":17,"sram_events":6,"sweeps":2,"t_model_s":0.501}"#,
    ];

    /// A record with what the samples lack: every escaped character and a
    /// multi-byte one, floats in exponent, long and signed-zero forms, and
    /// integer maxima.
    fn edge_record() -> TraceRecord {
        TraceRecord {
            seq: u64::MAX,
            t_model_s: -0.0,
            event: TraceEvent::RunCompleted {
                program: "q\"b\\s\nn\rr\tt\u{1}u-µΩ€😀".into(),
                dataset: "ref".into(),
                core: 255,
                mv: u32::MAX,
                iteration: 0,
                effects: "SDC+CE".into(),
                severity: 1e-7,
                runtime_s: 1e21,
                energy_j: 0.1 + 0.2,
                corrected_errors: u64::MAX,
                uncorrected_errors: 0,
            },
        }
    }

    /// The pinned bytes of [`edge_record`].
    const EDGE_LINE: &str = r#"{"core":255,"corrected_errors":18446744073709551615,"dataset":"ref","effects":"SDC+CE","energy_j":0.30000000000000004,"event":"RunCompleted","iteration":0,"mv":4294967295,"program":"q\"b\\s\nn\rr\tt\u0001u-µΩ€😀","runtime_s":1e21,"seq":18446744073709551615,"severity":1e-7,"t_model_s":-0.0,"uncorrected_errors":0}"#;

    fn render(events: Vec<TraceEvent>) -> String {
        let mut fin = StreamFinalizer::new();
        let mut out = String::new();
        for e in events {
            out.push_str(&fin.seal(e).to_json_line().expect("serializable"));
            out.push('\n');
        }
        out
    }

    #[test]
    fn schema_matches_every_serialized_variant() {
        let samples = sample_events();
        assert_eq!(samples.len(), 18, "add new variants to sample_events()");
        for event in samples {
            let name = event.name();
            let schema = event_schema(name).unwrap_or_else(|| panic!("no schema for {name}"));
            let record = TraceRecord {
                seq: 0,
                t_model_s: 0.0,
                event,
            };
            let line = record.to_json_line().expect("serializable");
            let value = json::parse(&line).expect("the line is JSON");
            let object = value.as_object().expect("flat object");
            // Every serialized payload key (minus tag and envelope) is in
            // the schema with an accepting kind, and vice versa.
            let payload: Vec<&String> = object
                .keys()
                .filter(|k| *k != "event" && *k != "seq" && *k != "t_model_s")
                .collect();
            assert_eq!(payload.len(), schema.len(), "{name} field count");
            for (field, kind) in schema {
                let v = object
                    .get(*field)
                    .unwrap_or_else(|| panic!("{name}.{field} missing from serialization"));
                assert!(
                    kind.accepts(v),
                    "{name}.{field}: {} rejected by schema",
                    json::render(v)
                );
            }
        }
        assert!(event_schema("NoSuchEvent").is_none());
    }

    #[test]
    fn every_variant_encodes_to_its_pinned_bytes() {
        let text = render(sample_events());
        assert_eq!(text.lines().collect::<Vec<_>>(), SAMPLE_LINES);
        let edge = edge_record().to_json_line().expect("finite floats encode");
        assert_eq!(edge, EDGE_LINE);
        for line in SAMPLE_LINES.into_iter().chain([EDGE_LINE]) {
            // `render` writes each key of the parsed map once, in sorted
            // order, so equality shows the line's keys are sorted and unique.
            let value = json::parse(line).expect("the line is JSON");
            assert_eq!(json::render(&value), line);
        }
    }

    #[test]
    fn non_finite_floats_fail_and_leave_the_buffer_untouched() {
        let mut nan_clock = edge_record();
        nan_clock.t_model_s = f64::NAN;
        let mut inf_energy = edge_record();
        if let TraceEvent::RunCompleted { energy_j, .. } = &mut inf_energy.event {
            *energy_j = f64::INFINITY;
        }
        // Payload fields are checked before the envelope.
        let mut both = inf_energy.clone();
        both.t_model_s = f64::NAN;
        for (record, field) in [
            (nan_clock, "t_model_s"),
            (inf_energy, "energy_j"),
            (both, "energy_j"),
        ] {
            let mut out = String::from("{\"kept\":1}\n");
            let err = record.write_json_line(&mut out).expect_err("non-finite");
            assert_eq!(err.field, field);
            assert_eq!(out, "{\"kept\":1}\n");
            let err = record.to_json_line().expect_err("non-finite");
            assert_eq!(err.field, field);
        }
    }

    #[test]
    fn roundtrips_a_full_stream() {
        let mut fin = StreamFinalizer::new();
        let sealed: Vec<TraceRecord> = sample_events().into_iter().map(|e| fin.seal(e)).collect();
        let mut text = String::new();
        for record in &sealed {
            text.push_str(&record.to_json_line().expect("serializable"));
            text.push('\n');
        }
        let records = read_jsonl(&text).expect("writer output parses");
        assert_eq!(records, sealed);
        // The 64-bit counter survived verbatim — no f64 round trip.
        assert!(matches!(
            records[8].event,
            TraceEvent::RunCompleted {
                corrected_errors: u64::MAX,
                ..
            }
        ));
    }

    #[test]
    fn garbage_json_is_reported_without_a_field() {
        let err = read_jsonl("this is not json\n").expect_err("must fail");
        assert_eq!((err.line, err.event_index), (1, 0));
        assert_eq!(err.field, None);
        assert!(err.message.contains("not valid JSON"), "{err}");
    }

    #[test]
    fn empty_line_is_reported() {
        let mut text = render(sample_events());
        text.push('\n'); // a trailing blank line after the final newline
        let err = read_jsonl(&text).expect_err("must fail");
        assert_eq!(err.line, 19);
        assert_eq!(err.event_index, 18);
        assert!(err.message.contains("empty line"), "{err}");
    }

    #[test]
    fn missing_field_is_named() {
        let line = r#"{"event":"WatchdogPowerCycle","seq":0,"t_model_s":0.0}"#;
        let err = read_jsonl(line).expect_err("recovery missing");
        assert_eq!(err.field.as_deref(), Some("recovery"));
        assert!(err.message.contains("missing"), "{err}");
        assert!(err.to_string().contains("field 'recovery'"), "{err}");
    }

    #[test]
    fn wrong_type_is_named() {
        let line = r#"{"event":"WatchdogPowerCycle","recovery":"often","seq":0,"t_model_s":0.0}"#;
        let err = read_jsonl(line).expect_err("recovery mistyped");
        assert_eq!(err.field.as_deref(), Some("recovery"));
        assert!(err.message.contains("expected"), "{err}");
        assert!(err.message.contains("\"often\""), "{err}");
    }

    #[test]
    fn out_of_range_integer_is_named() {
        let line = r#"{"core":300,"dataset":"ref","event":"SweepStarted","program":"namd","seq":0,"shard":0,"t_model_s":0.0}"#;
        let err = read_jsonl(line).expect_err("core out of u8 range");
        assert_eq!(err.field.as_deref(), Some("core"));
        assert!(err.message.contains("≤ 255"), "{err}");
    }

    #[test]
    fn unknown_event_and_unexpected_field_are_named() {
        let line = r#"{"event":"Mystery","seq":0,"t_model_s":0.0}"#;
        let err = read_jsonl(line).expect_err("unknown event");
        assert_eq!(err.field.as_deref(), Some("event"));
        assert!(err.message.contains("unknown event 'Mystery'"), "{err}");

        let line = r#"{"event":"WatchdogPowerCycle","recovery":1,"seq":0,"surprise":true,"t_model_s":0.0}"#;
        let err = read_jsonl(line).expect_err("extra field");
        assert_eq!(err.field.as_deref(), Some("surprise"));
        assert!(err.message.contains("unexpected field"), "{err}");
    }

    #[test]
    fn broken_envelope_is_named() {
        let line = r#"{"event":"WatchdogPowerCycle","recovery":1,"t_model_s":0.0}"#;
        let err = read_jsonl(line).expect_err("seq missing");
        assert_eq!(err.field.as_deref(), Some("seq"));

        let line = r#"{"event":"WatchdogPowerCycle","recovery":1,"seq":-3,"t_model_s":0.0}"#;
        let err = read_jsonl(line).expect_err("negative seq");
        assert_eq!(err.field.as_deref(), Some("seq"));
    }

    #[test]
    fn event_index_counts_successfully_parsed_records() {
        let mut text = render(sample_events());
        text.push_str("{\"broken\":true}\n");
        let err = read_jsonl(&text).expect_err("trailing corruption");
        assert_eq!(err.line, 19);
        assert_eq!(err.event_index, 18);
    }

    #[test]
    fn non_object_lines_and_nonfinite_floats_are_rejected() {
        let err = read_jsonl("[1,2,3]\n").expect_err("array line");
        assert!(err.message.contains("not a JSON object"), "{err}");

        // A syntactically valid number token that overflows to infinity.
        let line = r#"{"event":"WatchdogPowerCycle","recovery":1,"seq":0,"t_model_s":1e999}"#;
        let err = read_jsonl(line).expect_err("non-finite clock");
        assert_eq!(err.field.as_deref(), Some("t_model_s"));
    }
}
