//! Sinks consume finalized [`TraceRecord`]s.
//!
//! Three implementations cover the framework's needs: an in-memory
//! collector for tests, the byte-deterministic JSONL writer, and a human
//! progress reporter for stderr. Sinks receive records in canonical stream
//! order, incrementally — a sharded campaign feeds them live as soon as
//! each work item's place in the canonical order is reached, so progress
//! reporting works during multi-hour sweeps without sacrificing
//! reproducibility of the written stream.

use crate::event::{TraceEvent, TraceRecord};
use std::io::{self, Write};

/// A consumer of finalized trace records.
pub trait Sink {
    /// Consumes one record. Records arrive in canonical stream order.
    fn emit(&mut self, record: &TraceRecord);

    /// Called once after the last record; flush buffers here.
    fn finish(&mut self) {}
}

/// Collects records in memory — the test sink.
#[derive(Debug, Default)]
pub struct MemorySink {
    /// Everything emitted so far, in stream order.
    pub records: Vec<TraceRecord>,
}

impl MemorySink {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        MemorySink::default()
    }
}

impl Sink for MemorySink {
    fn emit(&mut self, record: &TraceRecord) {
        self.records.push(record.clone());
    }
}

/// Writes one sorted-key JSON object per line, each line with its `\n` in
/// one `write_all`. The byte stream depends only on the record sequence,
/// never on scheduling or wall-clock state.
///
/// IO errors are sticky: the first failure is retained and subsequent
/// emissions are dropped; callers inspect [`JsonlSink::io_error`] (or
/// [`JsonlSink::into_inner`]) after the campaign.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    /// The line being written, reused across records.
    line: String,
    lines: u64,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps a writer.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer,
            line: String::new(),
            lines: 0,
            error: None,
        }
    }

    /// Lines successfully written.
    #[must_use]
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// The first IO error encountered, if any.
    #[must_use]
    pub fn io_error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Flushes and returns the writer, surfacing any sticky error.
    ///
    /// # Errors
    ///
    /// Returns the first emission error, or the flush error.
    pub fn into_inner(mut self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> Sink for JsonlSink<W> {
    fn emit(&mut self, record: &TraceRecord) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        let result = record
            .write_json_line(&mut self.line)
            .map_err(io::Error::other)
            .and_then(|()| {
                self.line.push('\n');
                self.writer.write_all(self.line.as_bytes())
            });
        match result {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e),
        }
    }

    fn finish(&mut self) {
        if self.error.is_none() {
            if let Err(e) = self.writer.flush() {
                self.error = Some(e);
            }
        }
    }
}

/// Renders live, human-readable campaign progress — the stderr companion of
/// the deterministic JSONL stream. Output is line-oriented and intentionally
/// coarse: campaign banner, one line per sweep, recovery notices, and a
/// closing summary with the modelled campaign time.
#[derive(Debug)]
pub struct ProgressSink<W: Write> {
    writer: W,
    total_sweeps: u64,
    started_sweeps: u64,
    runs: u64,
    abnormal_runs: u64,
    power_cycles: u64,
}

impl<W: Write> ProgressSink<W> {
    /// Wraps a writer (normally stderr).
    pub fn new(writer: W) -> Self {
        ProgressSink {
            writer,
            total_sweeps: 0,
            started_sweeps: 0,
            runs: 0,
            abnormal_runs: 0,
            power_cycles: 0,
        }
    }

    fn line(&mut self, text: &str) {
        // Progress is best-effort; a broken stderr must not kill a campaign.
        // lint: allow(swallowed-fallibility) — best-effort progress line on stderr
        let _ = writeln!(self.writer, "{text}");
        // lint: allow(swallowed-fallibility) — best-effort progress flush on stderr
        let _ = self.writer.flush();
    }
}

impl<W: Write> Sink for ProgressSink<W> {
    fn emit(&mut self, record: &TraceRecord) {
        match &record.event {
            TraceEvent::CampaignStarted {
                chip,
                rail,
                benchmarks,
                cores,
                steps,
                iterations,
                shards,
                ..
            } => {
                self.total_sweeps = u64::from(*benchmarks) * u64::from(*cores);
                self.line(&format!(
                    "trace: campaign on {chip}: {benchmarks} benchmarks x {cores} cores x {steps} steps x {iterations} iterations ({rail} rail, {shards} shards)"
                ));
            }
            TraceEvent::SweepStarted { program, core, .. } => {
                self.started_sweeps += 1;
                let (n, total) = (self.started_sweeps, self.total_sweeps);
                self.line(&format!(
                    "trace: [{n}/{total}] sweeping {program} on core{core}"
                ));
            }
            TraceEvent::RunCompleted { effects, .. } => {
                self.runs += 1;
                if effects != "NO" {
                    self.abnormal_runs += 1;
                }
            }
            TraceEvent::WatchdogPowerCycle { recovery } => {
                self.power_cycles += 1;
                self.line(&format!(
                    "trace:   watchdog power cycle (recovery {recovery} this sweep)"
                ));
            }
            TraceEvent::SearchConcluded {
                program,
                core,
                strategy,
                probed_steps,
                grid_steps,
                cache_hits,
            } => {
                self.line(&format!(
                    "trace:   {strategy} search: {program} core{core} probed {probed_steps}/{grid_steps} steps ({cache_hits} cache hits)"
                ));
            }
            TraceEvent::EarlyStop {
                program, core, mv, ..
            } => {
                self.line(&format!(
                    "trace:   early stop: {program} core{core} all-SC down to {mv}mV"
                ));
            }
            TraceEvent::SweepFinished {
                program,
                core,
                runs,
                ..
            } => {
                self.line(&format!(
                    "trace:   {program} core{core} done ({runs} runs; campaign totals: {} runs, {} abnormal, {} power cycles)",
                    self.runs, self.abnormal_runs, self.power_cycles
                ));
            }
            TraceEvent::CampaignFinished { runs, power_cycles } => {
                self.line(&format!(
                    "trace: campaign finished: {runs} runs, {power_cycles} power cycles, modelled time {:.3}s",
                    record.t_model_s
                ));
            }
            TraceEvent::VoltageDecision {
                voltage_mv,
                energy_savings,
                ..
            } => {
                self.line(&format!(
                    "trace: governor decision: {voltage_mv}mV, {:.1}% savings",
                    energy_savings * 100.0
                ));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::StreamFinalizer;

    fn sealed(events: Vec<TraceEvent>) -> Vec<TraceRecord> {
        let mut fin = StreamFinalizer::new();
        events.into_iter().map(|e| fin.seal(e)).collect()
    }

    fn sample_stream() -> Vec<TraceRecord> {
        sealed(vec![
            TraceEvent::CampaignStarted {
                chip: "TTT#0".into(),
                rail: "pmd".into(),
                benchmarks: 1,
                cores: 1,
                steps: 2,
                iterations: 1,
                shards: 1,
                seed: 7,
            },
            TraceEvent::SweepStarted {
                program: "namd".into(),
                dataset: "ref".into(),
                core: 4,
                shard: 0,
            },
            TraceEvent::RunCompleted {
                program: "namd".into(),
                dataset: "ref".into(),
                core: 4,
                mv: 890,
                iteration: 0,
                effects: "SDC".into(),
                severity: 4.0,
                runtime_s: 0.5,
                energy_j: 1e-2,
                corrected_errors: 0,
                uncorrected_errors: 0,
            },
            TraceEvent::SweepFinished {
                program: "namd".into(),
                dataset: "ref".into(),
                core: 4,
                runs: 1,
            },
            TraceEvent::CampaignFinished {
                runs: 1,
                power_cycles: 0,
            },
        ])
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let mut sink = MemorySink::new();
        for r in &sample_stream() {
            sink.emit(r);
        }
        assert_eq!(sink.records.len(), 5);
        assert_eq!(sink.records[2].event.name(), "RunCompleted");
    }

    #[test]
    fn jsonl_sink_writes_one_sorted_object_per_line() {
        let mut sink = JsonlSink::new(Vec::new());
        for r in &sample_stream() {
            sink.emit(r);
        }
        sink.finish();
        assert_eq!(sink.lines(), 5);
        let bytes = sink.into_inner().expect("no io error on Vec");
        let text = String::from_utf8(bytes).expect("utf8");
        assert_eq!(text.lines().count(), 5);
        for line in text.lines() {
            let v = crate::json::parse(line).expect("parseable");
            let obj = v.as_object().expect("object");
            assert!(obj.contains_key("event"));
            assert!(obj.contains_key("seq"));
        }
        assert!(text
            .lines()
            .next()
            .is_some_and(|l| l.contains("\"event\":\"CampaignStarted\"")));
    }

    #[test]
    fn progress_sink_reports_sweeps_and_summary() {
        let mut sink = ProgressSink::new(Vec::new());
        for r in &sample_stream() {
            sink.emit(r);
        }
        let text = String::from_utf8(sink.writer).expect("utf8");
        assert!(text.contains("[1/1] sweeping namd on core4"));
        assert!(text.contains("campaign finished: 1 runs"));
        assert!(text.contains("modelled time 0.500s"));
    }
}
