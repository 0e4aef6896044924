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
//! Decoding is deliberately strict. [`TraceEvent`]'s declaration is the
//! schema: the event named by the `event` tag reads every payload field by
//! name and type, in declaration order, through the shared [`Fields`]
//! reader, and a field no read asked for is rejected afterwards, since the
//! writer never emits one. Numeric ranges are enforced (a `core` of 300 is
//! corruption, not data), and integer tokens are parsed from their raw
//! text so 64-bit values never round-trip through `f64`.
//!
//! [`JsonlSink`]: crate::sink::JsonlSink

use crate::event::{TraceEvent, TraceRecord};
use crate::json::{self, FieldError, Fields};
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

/// Parses one line, reporting `(offending field, message)` on failure.
fn parse_line(line: &str) -> Result<TraceRecord, Fail> {
    let value = json::parse(line).map_err(|e| (None, format!("not valid JSON: {e}")))?;
    let Some(mut fields) = Fields::of(&value) else {
        return Err((None, "line is not a JSON object".to_owned()));
    };
    let envelope = |e| field_fail(e, None);
    let seq = fields.get("seq").map_err(envelope)?;
    let t_model_s = fields.get("t_model_s").map_err(envelope)?;
    let event_name: &str = fields.get("event").map_err(envelope)?;
    let event = TraceEvent::decode(event_name, &mut fields)
        .map_err(|e| field_fail(e, Some(event_name)))?
        .ok_or_else(|| {
            (
                Some("event".to_owned()),
                format!("unknown event '{event_name}'"),
            )
        })?;
    if let Some(key) = fields.unread() {
        return Err((
            Some(key.to_owned()),
            format!("unexpected field for {event_name}"),
        ));
    }
    Ok(TraceRecord {
        seq,
        t_model_s,
        event,
    })
}

/// A field read's failure; a missing payload field names the event that
/// requires it.
fn field_fail(e: FieldError<'_>, event: Option<&str>) -> Fail {
    let message = match (e, event) {
        (FieldError::Missing(_), Some(event)) => format!("missing (required by {event})"),
        (FieldError::Missing(_), None) => "missing".to_owned(),
        (FieldError::Mistyped { expected, got, .. }, _) => {
            format!("expected {expected}, got {}", json::render(got))
        }
    };
    (Some(e.field().to_owned()), message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::StreamFinalizer;

    /// One sample per variant, in declaration order; a test holds it to
    /// [`TraceEvent`]'s declaration, so a new event needs a pinned line.
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
    fn samples_name_each_event_once_in_declaration_order() {
        let names: Vec<&str> = sample_events().iter().map(TraceEvent::name).collect();
        assert_eq!(names, TraceEvent::NAMES);
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

        // Fields are read in declaration order, so of two missing fields
        // the earlier declared one is named.
        let line = r#"{"core":0,"corrected_errors":0,"effects":"NO","event":"RunCompleted","iteration":0,"mv":900,"program":"namd","runtime_s":0.001,"seq":0,"severity":0.0,"t_model_s":0.0,"uncorrected_errors":0}"#;
        let err = read_jsonl(line).expect_err("dataset and energy_j missing");
        assert_eq!(err.field.as_deref(), Some("dataset"));
        assert_eq!(err.message, "missing (required by RunCompleted)");
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
